"""Minimal deterministic SVG line-plot emitter for batch outputs."""
from __future__ import annotations

import math

_W, _H = 640, 200
_ML, _MR, _MT, _MB = 60, 10, 20, 30
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_TRACE_PANELS = (("Grid / GSC frequency (Hz)", ("f_g", "f_gsc")),
                 ("DC-link voltage (pu)", ("v_dc",)),
                 ("Rotor speed (pu) / pitch (deg)", ("omega_r", "beta")),
                 ("Power (pu)", ("P_wt", "P_gsc", "P_g")))


def _panel(title, t, series, labels, y0):
    import numpy as np  # not at module level: the design commands plot no trace
    lines = [f'<text x="{_ML}" y="{y0 + 14}" font-size="12" '
             f'font-family="sans-serif">{title}</text>']
    lo = min(float(y.min()) for y in series)
    hi = max(float(y.max()) for y in series)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    x_of = lambda x: _ML + (x - t[0]) / (t[-1] - t[0]) * (_W - _ML - _MR)
    y_of = lambda y: y0 + _MT + (hi - y) / (hi - lo) * (_H - _MT - _MB)
    lines.append(f'<rect x="{_ML}" y="{y0 + _MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#999"/>')
    for v in (lo + pad, hi - pad):
        lines.append(f'<text x="{_ML - 5}" y="{y_of(v):.1f}" font-size="10" '
                     f'text-anchor="end" font-family="sans-serif">{v:.4g}</text>')
    step = max(len(t) // 2000, 1)
    # x_of and y_of on whole strided arrays: per point, the same float
    # operations in the same order as on scalars.
    xy = np.empty((len(t[::step]), 2))
    xy[:, 0] = x_of(t[::step])
    for k, (y, lab) in enumerate(zip(series, labels)):
        xy[:, 1] = y_of(y[::step])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        color = _COLORS[k % len(_COLORS)]
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1"/>')
        lines.append(f'<text x="{_W - _MR - 90}" y="{y0 + 14 + 12 * k}" '
                     f'font-size="10" fill="{color}" '
                     f'font-family="sans-serif">{lab}</text>')
    return lines


def trace_svg(trace) -> str:
    """Stacked line panels for a SimTrace; deterministic output text."""
    body = []
    for i, (title, cols) in enumerate(_TRACE_PANELS):
        series = [trace.column(c) for c in cols]
        body += _panel(title, trace.t, series, cols, i * _H)
    h = len(_TRACE_PANELS) * _H
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{h}">\n' + "\n".join(body) + "\n</svg>\n")


def heatmap_svg(v_grid, eta_grid, values) -> str:
    """Grid heat map of values[i][j]; infinite cells rendered grey."""
    finite = [x for row in values for x in row if math.isfinite(x)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    cw, ch = 40, 24
    x0, y0 = 80, 40
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{x0 + cw * len(eta_grid) + 20}" '
           f'height="{y0 + ch * len(v_grid) + 20}">',
           f'<text x="{x0}" y="20" font-size="12" '
           f'font-family="sans-serif">droop map</text>']
    for i, v in enumerate(v_grid):
        out.append(f'<text x="{x0 - 6}" y="{y0 + ch * i + 16}" font-size="10" '
                   f'text-anchor="end" font-family="sans-serif">{v:g}</text>')
        for j, e in enumerate(eta_grid):
            val = values[i][j]
            if not math.isfinite(val):
                fill = "#cccccc"
            else:
                z = 0.0 if hi == lo else (val - lo) / (hi - lo)
                r = int(255 * z)
                b = int(255 * (1 - z))
                fill = f"#{r:02x}40{b:02x}"
            out.append(f'<rect x="{x0 + cw * j}" y="{y0 + ch * i}" '
                       f'width="{cw}" height="{ch}" fill="{fill}" '
                       f'stroke="#fff"/>')
    for j, e in enumerate(eta_grid):
        out.append(f'<text x="{x0 + cw * j + 4}" y="{y0 - 6}" font-size="10" '
                   f'font-family="sans-serif">{e:g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
