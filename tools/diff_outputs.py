#!/usr/bin/env python3
"""Byte-for-byte comparison of the CLI's outputs against a base revision.

Usage (from the root of a windgfm checkout):

    python3 tools/diff_outputs.py [--base HEAD] [--keep DIR]

The base side is the committed tree of ``--base``, exported with
``git archive``; the change side is the working tree.  Each side's package
is staged with its own ``perfbench/build.py`` (compiled kernel, nothing
written under ``src/``), and the fixed list of ``probes`` runs on both, each
probe in an empty directory.  A probe's exit code, its stdout, its stderr
(empty where it passes, its failure message where it fails) and every file
it writes are compared byte for byte.  For each artefact that differs the
first differing line is printed; for a differing CSV file the share of its
rows that are bit-equal and each column's largest absolute difference, and
for a differing JSON stdout each numeric key path's largest absolute
difference.  Each probe's line then gives its verdict ("identical" or the
number of its differing artefacts) beside its child's peak resident set on
both sides, so that a memory change shows without the benchmark.  That
peak is the probe's own: a small launcher forks the probe and reads its
``ru_maxrss`` from ``os.wait4`` (see ``LAUNCHER``).  A last line gives each
side's Python and C line counts under ``src/windgfm``, all lines and code
lines (those holding more than a comment, a docstring or whitespace), so
that a change's net lines come from the same run.  The exit status is 1 if
any artefact differs, else 0.  ``--keep DIR`` keeps both sides' outputs
under ``DIR/base`` and ``DIR/change``.
"""
from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import itertools
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import export_tree  # noqa: E402

def probes(pure_args: list) -> dict:
    """Probe name -> (CLI arguments, whether it runs on the pure-Python
    kernel); pure_args is the benchmark's pure_fallback config."""
    return {
        "simulate": (["simulate", "--out", "sim.csv", "--plot", "sim.svg"], False),
        "compare": (["compare", "--out", "cmp.csv", "--plot", "cmp.svg"], False),
        "deload-table": (["deload-table", "--out", "deload.csv"], False),
        "droop-map": (["droop-map", "--out", "map.csv", "--plot", "map.svg"],
                      False),
        "gain-design": (["gain-design"], False),
        "smallsignal": (["smallsignal"], False),
        # the model's pitch stiffness K_beta K_p in A[3][3] (k_p 428.9 at
        # beta_del 8.58 deg), and the matched MPPT gains
        "smallsignal-14ms": (["smallsignal", "--set", "scenario.v_w=14"],
                             False),
        "smallsignal-GFM_MPPT": (["smallsignal", "--set",
                                  "scenario.mode=GFM_MPPT"], False),
        **{f"gain-design-{m}": (["gain-design", "--set", f"scenario.mode={m}"],
                                False)
           for m in ("GFL_MPPT", "GFM_MPPT", "GFM_FR")},
        **{f"{cmd}-{v}ms": ([cmd, "--set", f"scenario.v_w={v}",
                             "--out", f"{cmd}.csv"], False)
           for cmd in ("simulate", "compare") for v in (12, 13)},
        # 119,999 steps round down to 119,998, whole strides: the last
        # row's outputs come from the kernels' post-loop call
        "simulate-odd-steps": (["simulate", "--set", "scenario.duration=59.9995",
                                "--out", "sim.csv"], False),
        # stride 3: the final row's outputs take one more kernel call
        "simulate-stride-3": (["simulate", "--set", "scenario.sample_dt=0.0015",
                               "--out", "sim.csv"], False),
        "simulate-GFL_MPPT": (["simulate", "--set", "scenario.mode=GFL_MPPT",
                               "--out", "sim.csv"], False),
        # a load decrease: the nadir is f_g's peak, and compare orders the
        # modes on their excursions
        **{f"{cmd}-decrease": ([cmd, "--set", "scenario.events=[[30,-0.05]]",
                                "--out", f"{cmd}.csv"], False)
           for cmd in ("simulate", "compare")},
        # two events: the nadir is the first event's dip, not the second's
        # peak
        **{f"{cmd}-two-events": ([cmd, "--set",
                                  "scenario.events=[[20,0.1],[30,-0.2]]",
                                  "--out", f"{cmd}.csv"], False)
           for cmd in ("simulate", "compare")},
        # long runs: the settled tail after the load step, and compare's
        # three 240 s runs, the largest peak resident set of any probe
        "simulate-240s": (["simulate", "--set", "scenario.duration=240",
                           "--out", "sim.csv"], False),
        "compare-240s": (["compare", "--set", "scenario.duration=240",
                          "--out", "cmp.csv", "--plot", "cmp.svg"], False),
        # design-chain branches: the pitch fallback above omega_max = 1.2,
        # infeasible droop cells, the capped speed above rated wind and the
        # deepest curtailment
        "deload-table-omega_max-1.3": (["deload-table", "--set",
                                        "turbine.omega_max=1.3",
                                        "--out", "deload.csv"], False),
        "droop-map-target_droop": (["droop-map", "--set",
                                    "control.target_droop=0.05",
                                    "--out", "map.csv", "--plot", "map.svg"],
                                   False),
        "gain-design-14ms": (["gain-design", "--set", "scenario.v_w=14"], False),
        "gain-design-eta-0.7": (["gain-design", "--set", "scenario.eta=0.7"],
                                False),
        # the other preset's excursion budget
        "gain-design-fig7": (["gain-design", "--set", "control.preset=fig7"],
                             False),
        "droop-map-fig7": (["droop-map", "--set", "control.preset=fig7",
                            "--out", "map.csv"], False),
        "pure_fallback": ([*pure_args, "--out", "pure.csv"], True),
        # the same config's three modes, GFL_MPPT's held WT side included
        "pure_fallback-compare": (["compare", *pure_args[1:], "--out",
                                   "cmp.csv"], True),
        # failures, compared on their stderr: the rotor stalls after a
        # +3 pu step, and sin(inf) in an RK4 stage on both kernels
        "fail-step-3pu": (["simulate", "--set", "scenario.events=[[30,3]]"],
                          False),
        # a config error: events out of time order
        "fail-events-unordered": (["simulate", "--set",
                                   "scenario.events=[[40,0.1],[30,-0.2]]"],
                                  False),
        **{f"fail-t_g-tiny{'-pure' if pure else ''}": (
            ["simulate", "--set", "scenario.duration=3", "--set",
             "scenario.events=[[1.0,0.4]]", "--set", "sg.t_g=5e-324"], pure)
           for pure in (False, True)},
    }


def load_build(side: Path, name: str):
    """The side's own perfbench/build.py, which stages that side's sources."""
    spec = importlib.util.spec_from_file_location(
        f"build_{name}", side / "perfbench" / "build.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# Run with ``python -I -S -c LAUNCHER STDERR ARGV``: fork ARGV with its
# stderr into the file STDERR, wait for it, and print on the launcher's own
# stderr its exit code and its peak resident set in kB.  The probe's stdout
# is the launcher's.  On Linux a spawned
# child's ru_maxrss starts at the high-water mark of the process it was
# spawned from (vfork, then exec), so a probe spawned from this script would
# read this script's peak; forked from the launcher it reads at most the
# launcher's, about 10 MB.
LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 2)
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def run_child(argv: list, cwd: Path, env: dict, stdout,
              stderr: Path) -> tuple:
    """Run argv to its end with its stdout into the open file stdout and its
    stderr into the file stderr: (exit code, the child's own peak resident
    set in MB)."""
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER,
                           str(stderr), *argv],
                          cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, check=True)
    code, kb = proc.stderr.split()
    return int(code), int(kb) / 1024


def run_probes(side: Path, name: str, out: Path, cli: str, probe_list: dict) -> dict:
    """Run every probe on one side with ``python -c cli ARGS``; probe P
    leaves ``out/P/exit_code``, ``out/P/stdout``, ``out/P/stderr`` and the
    files it wrote under ``out/P/files``.  Returns probe -> peak RSS (MB)."""
    build = load_build(side, name)
    stage = build.ensure_stage()
    rss = {}
    for probe, (args, pure) in probe_list.items():
        files = out / probe / "files"
        files.mkdir(parents=True)
        with open(out / probe / "stdout", "wb") as stdout:
            code, rss[probe] = run_child([sys.executable, "-c", cli, *args],
                                         files, build.child_env(stage, pure),
                                         stdout, out / probe / "stderr")
        (out / probe / "exit_code").write_text(f"{code}\n")
        print(f"{name} {probe}: exit {code}", file=sys.stderr)
    return rss


def probe_lines(rss_base: dict, rss_change: dict, diffs: list) -> list:
    """One line per probe: its verdict and its peak RSS on both sides."""
    lines = []
    for probe, a in rss_base.items():
        b = rss_change[probe]
        n = sum(rel.startswith(f"{probe}/") for rel, _ in diffs)
        verdict = f"{n} differing" if n else "identical"
        lines.append(f"{probe}: {verdict}; peak RSS {a:.1f} -> {b:.1f} MB "
                     f"({100 * (b - a) / a:+.1f}%)")
    return lines


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def python_code_lines(text: str) -> int:
    """Lines of Python source that hold a token besides comments and
    docstrings."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING
                                              and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code)


# A C comment, or a string or character literal, which may hold "/*" or "//"
_C_COMMENT_OR_LITERAL = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)


def c_code_lines(text: str) -> int:
    """Lines of C source that hold more than comments and whitespace."""
    bare = _C_COMMENT_OR_LITERAL.sub(
        lambda m: m[0] if m[0][0] in "\"'" else "\n" * m[0].count("\n"), text)
    return sum(1 for line in bare.splitlines() if line.strip())


def source_lines(root: Path) -> dict:
    """Lines of the Python and of the C sources under root/src/windgfm: all
    of them ("py", "c") and the code lines ("py code", "c code")."""
    pkg = root / "src" / "windgfm"
    counts = {}
    for ext, code_lines in (("py", python_code_lines), ("c", c_code_lines)):
        texts = [p.read_bytes() for p in pkg.rglob(f"*.{ext}")]
        counts[ext] = sum(len(t.splitlines()) for t in texts)
        counts[f"{ext} code"] = sum(code_lines(t.decode()) for t in texts)
    return counts


def source_line(base: dict, change: dict) -> str:
    """The line comparing two sides' source_lines."""
    return "src/windgfm lines: " + ", ".join(
        f"{key} {base[key]} -> {change[key]} ({change[key] - base[key]:+d})"
        for key in base)


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _clip(line: bytes, col: int) -> str:
    start = max(col - 40, 0)
    text = line[start:start + 120].decode(errors="replace")
    return ("..." if start else "") + text + ("..." if len(line) > start + 120 else "")


def first_difference(a: bytes, b: bytes) -> str:
    """'line N: base ... | change ...' at the first line where a and b, which
    differ, differ."""
    pairs = itertools.zip_longest(a.split(b"\n"), b.split(b"\n"))
    i, (x, y) = next((i, xy) for i, xy in enumerate(pairs, 1) if xy[0] != xy[1])
    if x is None or y is None:
        return f"line {i}: {'base' if x is None else 'change'} has no such line"
    col = next((k for k, (p, q) in enumerate(zip(x, y)) if p != q),
               min(len(x), len(y)))
    return f"line {i}: base {_clip(x, col)!r} | change {_clip(y, col)!r}"


def size_csv_difference(a: bytes, b: bytes) -> list:
    """Lines sizing the difference of two CSV texts with one header: the
    share of rows that are bit-equal, then each column's largest absolute
    difference ("text" where a differing cell is not a finite number).
    Values written with %.17g are bit-equal exactly where their text is."""
    ra, rb = a.decode().splitlines(), b.decode().splitlines()
    if not ra or not rb or ra[0] != rb[0]:
        return ["    not sized: the headers differ"]
    if len(ra) != len(rb):
        return [f"    not sized: {len(ra) - 1} rows against {len(rb) - 1}"]
    names = ra[0].split(",")
    largest = [0.0] * len(names)
    equal = 0
    for x, y in zip(ra[1:], rb[1:]):
        if x == y:
            equal += 1
            continue
        for k, (u, v) in enumerate(zip(x.split(","), y.split(","))):
            if u != v:
                try:
                    d = abs(float(v) - float(u))
                except ValueError:
                    d = math.inf
                # inf marks a text difference; so does a NaN d
                largest[k] = max(largest[k], d) if d == d else math.inf
    n = len(ra) - 1
    cols = ", ".join(f"{name} {f'{d:.3g}' if math.isfinite(d) else 'text'}"
                     for name, d in zip(names, largest))
    share = 100 * equal / max(n, 1)
    return [f"    bit-equal rows: {equal} of {n} ({share:.1f}%)",
            f"    largest |change - base|: {cols}"]


def _json_documents(text: bytes):
    """The JSON documents of a stdout, written one after another (as
    smallsignal prints two), or None if it is not such a text."""
    s, dec = text.decode(errors="replace"), json.JSONDecoder()
    docs, i = [], 0
    try:
        while s[i:].strip():
            i = len(s) - len(s[i:].lstrip())
            doc, i = dec.raw_decode(s, i)
            docs.append(doc)
    except json.JSONDecodeError:
        return None
    return docs or None


def _walk(a, b, path: str, largest: dict) -> None:
    """Record in largest each numeric key path's largest |b - a| (the
    elements of a list share their list's path), and inf for a path whose
    values differ otherwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            sub = f"{path}.{k}" if path else k
            if k in a and k in b:
                _walk(a[k], b[k], sub, largest)
            else:
                largest[sub] = math.inf
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _walk(x, y, path, largest)
    elif type(a) in (int, float) and type(b) in (int, float):
        d = abs(b - a)
        # a NaN d marks a text difference, as in a CSV cell
        largest[path] = max(largest.get(path, 0.0), d) if d == d else math.inf
    elif a != b or type(a) is not type(b):
        largest[path] = math.inf


def size_json_difference(a: bytes, b: bytes) -> list:
    """A line sizing the difference of two JSON stdouts: each numeric key
    path's largest absolute difference, "text" for a path whose values
    differ otherwise (a string, a missing key, a list's length)."""
    da, db = _json_documents(a), _json_documents(b)
    if da is None or db is None:
        return ["    not sized: not JSON"]
    largest = {}
    _walk(da, db, "", largest)
    paths = ", ".join(f"{path or '.'} {f'{d:.3g}' if math.isfinite(d) else 'text'}"
                      for path, d in largest.items())
    return [f"    largest |change - base|: {paths}"]


def compare_dirs(base: Path, change: Path) -> list:
    """(relative path, what differs) for every file not byte-identical on the
    two sides, including files present on one side only."""
    fb, fc = _files(base), _files(change)
    diffs = []
    for rel in sorted(fb | fc):
        if rel not in fc:
            diffs.append((rel, "missing on the change side"))
        elif rel not in fb:
            diffs.append((rel, "missing on the base side"))
        else:
            a, b = (base / rel).read_bytes(), (change / rel).read_bytes()
            if a != b:
                diffs.append((rel, first_difference(a, b)))
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision of the base side")
    ap.add_argument("--keep", type=Path, help="keep the outputs in this directory")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # the benchmark's CLI launcher and pure_fallback config
    probe_list = probes(workloads.PURE_ARGS)
    with tempfile.TemporaryDirectory(prefix="diff-outputs-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "tree"
        export_tree(args.base, base_tree)
        out = args.keep or tmp / "out"
        for side in ("base", "change"):
            shutil.rmtree(out / side, ignore_errors=True)
        rss_base = run_probes(base_tree, "base", out / "base", workloads.CLI,
                              probe_list)
        rss_change = run_probes(ROOT, "change", out / "change", workloads.CLI,
                                probe_list)
        diffs = compare_dirs(out / "base", out / "change")
        for rel, what in diffs:
            print(f"DIFFERS {rel}: {what}")
            if what.startswith("missing"):
                continue
            size = (size_csv_difference if rel.endswith(".csv") else
                    size_json_difference if rel.endswith("/stdout") else None)
            if size:
                for line in size((out / "base" / rel).read_bytes(),
                                 (out / "change" / rel).read_bytes()):
                    print(line)
        net_lines = source_line(source_lines(base_tree), source_lines(ROOT))
    for line in probe_lines(rss_base, rss_change, diffs):
        print(line)
    print(f"{len(probe_list)} probes, {len(diffs)} differing artefacts")
    print(net_lines)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
