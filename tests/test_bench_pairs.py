import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
               "bound": 0.05},
              {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def runs(base: dict, change: dict) -> list:
    """Synthetic pairs: metric -> one value per pair on each side."""
    n = len(next(iter(base.values())))
    return [{side: {"metrics": {k: v[i] for k, v in vals.items()}}
             for side, vals in (("base", base), ("change", change))}
            for i in range(n)]


def test_summarize_quartiles_wins_and_iqr():
    out = bench_pairs.summarize(
        runs({"pass_s": [2.0, 2.1, 2.2, 2.3, 2.4]},
             {"pass_s": [1.5, 2.2, 1.6, 1.7, 1.8]}), END_TO_END)
    s = out["pass_s"]
    assert set(out) == {"pass_s"}       # metrics absent from the runs skipped
    assert s["base"] == {"median": 2.2, "q1": 2.1, "q3": 2.3}
    assert s["change"]["median"] == 1.7
    assert (s["wins"], s["pairs"]) == (4, 5)
    assert s["median_change"] == pytest.approx(1.7 / 2.2 - 1.0)
    assert s["gain_exceeds_base_iqr"] is True
    assert s["bound"] == 0.25 and s["within_bound"] is True


@pytest.mark.parametrize("change, within", [
    (52.49, True), (52.5, True), (52.51, False), (45.0, True)])
def test_summarize_within_bound_lower_is_better(change, within):
    # base median 50 MB, bound 5%: the change's median may reach 52.5 MB
    out = bench_pairs.summarize(
        runs({"peak_rss_mb": [49.0, 50.0, 51.0]},
             {"peak_rss_mb": [change - 1.0, change, change + 1.0]}), END_TO_END)
    s = out["peak_rss_mb"]
    assert s["bound"] == 0.05
    assert s["within_bound"] is within


@pytest.mark.parametrize("change, within", [
    (9.01, True), (9.0, True), (8.99, False), (12.0, True)])
def test_summarize_within_bound_higher_is_better(change, within):
    out = bench_pairs.summarize(
        runs({"rate": [9.0, 10.0, 11.0]}, {"rate": [change] * 3}), END_TO_END)
    assert out["rate"]["within_bound"] is within
