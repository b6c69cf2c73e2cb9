import importlib.util
import sys
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "diff_outputs", Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_outputs)


def side(root: Path, files: dict) -> Path:
    """A synthetic side: relative path -> bytes, as run_probes lays it out."""
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


BASE = {"simulate/exit_code": b"0\n", "simulate/stdout": b'{"a": 1}\n',
        "simulate/files/sim.csv": b"t,f_g\n0,50\n0.001,49.9\n"}


def test_identical_sides_have_no_difference(tmp_path):
    assert diff_outputs.compare_dirs(side(tmp_path / "b", BASE),
                                     side(tmp_path / "c", BASE)) == []


def test_differing_file_reports_first_differing_line(tmp_path):
    change = dict(BASE)
    change["simulate/files/sim.csv"] = b"t,f_g\n0,50\n0.001,49.8\n"
    diffs = diff_outputs.compare_dirs(side(tmp_path / "b", BASE),
                                      side(tmp_path / "c", change))
    assert diffs == [("simulate/files/sim.csv",
                      "line 3: base '0.001,49.9' | change '0.001,49.8'")]


@pytest.mark.parametrize("drop, where", [("base", "missing on the base side"),
                                         ("change", "missing on the change side")])
def test_file_on_one_side_only(tmp_path, drop, where):
    short = {k: v for k, v in BASE.items() if not k.endswith(".csv")}
    sides = {"base": BASE, "change": BASE, drop: short}
    diffs = diff_outputs.compare_dirs(side(tmp_path / "b", sides["base"]),
                                      side(tmp_path / "c", sides["change"]))
    assert diffs == [("simulate/files/sim.csv", where)]


def test_differing_exit_code(tmp_path):
    change = dict(BASE, **{"simulate/exit_code": b"2\n"})
    diffs = diff_outputs.compare_dirs(side(tmp_path / "b", BASE),
                                      side(tmp_path / "c", change))
    assert diffs == [("simulate/exit_code", "line 1: base '0' | change '2'")]


def test_first_difference_of_unequal_line_counts_and_long_lines():
    assert diff_outputs.first_difference(b"a\n", b"a\nb\n") == \
        "line 2: base '' | change 'b'"
    assert diff_outputs.first_difference(b"a", b"a\nb") == \
        "line 2: base has no such line"
    long_a, long_b = b"x" * 500 + b"1" + b"y" * 500, b"x" * 500 + b"2" + b"y" * 500
    out = diff_outputs.first_difference(long_a, long_b)
    assert out.startswith("line 1: base '...") and "x1y" in out and "x2y" in out
    assert len(out) < 300


def test_probe_list_covers_every_mode_and_the_pure_kernel():
    probes = diff_outputs.probes(["simulate", "--set", "scenario.dt=0.001"])
    for mode in ("GFL_MPPT", "GFM_MPPT", "GFM_FR"):
        assert probes[f"gain-design-{mode}"][0][-1] == f"scenario.mode={mode}"
    assert [k for k, (_, pure) in probes.items() if pure] == \
        ["pure_fallback", "pure_fallback-compare", "fail-t_g-tiny-pure"]
    # the kernel's output columns at both ends of a run and in GFL mode
    for probe, override in (("simulate-odd-steps", "scenario.duration=59.9995"),
                            ("simulate-stride-3", "scenario.sample_dt=0.0015"),
                            ("simulate-GFL_MPPT", "scenario.mode=GFL_MPPT")):
        assert probes[probe][0][:3] == ["simulate", "--set", override]
        assert "--out" in probes[probe][0]
    for cmd in ("simulate", "compare"):
        assert probes[f"{cmd}-decrease"][0][:3] == \
            [cmd, "--set", "scenario.events=[[30,-0.05]]"]
        assert probes[f"{cmd}-two-events"][0][:3] == \
            [cmd, "--set", "scenario.events=[[20,0.1],[30,-0.2]]"]
    assert probes["pure_fallback"][0][-2:] == ["--out", "pure.csv"]
    assert probes["pure_fallback-compare"][0] == \
        ["compare", "--set", "scenario.dt=0.001", "--out", "cmp.csv"]
    # the fig7 preset of the design commands
    for probe in ("gain-design-fig7", "droop-map-fig7"):
        assert probes[probe][0][1:3] == ["--set", "control.preset=fig7"]
    # the small-signal model of a pitched design and of the MPPT gains
    assert probes["smallsignal-14ms"] == \
        (["smallsignal", "--set", "scenario.v_w=14"], False)
    assert probes["smallsignal-GFM_MPPT"] == \
        (["smallsignal", "--set", "scenario.mode=GFM_MPPT"], False)


def test_csv_difference_is_sized_per_column():
    base = b"t,f_g,status\n0,50,ok\n0.001,49.9,ok\n0.002,49.5,ok\n0.003,1,ok\n"
    change = b"t,f_g,status\n0,50,ok\n0.001,49.8,ok\n0.002,49.25,ok\n0.003,1,nan\n"
    assert diff_outputs.size_csv_difference(base, change) == [
        "    bit-equal rows: 1 of 4 (25.0%)",
        "    largest |change - base|: t 0, f_g 0.25, status text"]
    # -0 and 0 are equal numbers but not equal bits
    assert diff_outputs.size_csv_difference(b"x\n0\n1\n", b"x\n-0\n1\n") == [
        "    bit-equal rows: 1 of 2 (50.0%)", "    largest |change - base|: x 0"]


@pytest.mark.parametrize("change, why", [
    (b"t,f_gsc\n0,50\n", "the headers differ"),
    (b"t,f_g\n0,50\n", "2 rows against 1")])
def test_csv_difference_not_sized_across_layouts(change, why):
    base = b"t,f_g\n0,50\n0.001,49.9\n"
    assert diff_outputs.size_csv_difference(base, change) == \
        [f"    not sized: {why}"]


def test_probe_list_has_a_long_run():
    probes = diff_outputs.probes([])
    args, pure = probes["simulate-240s"]
    assert args == ["simulate", "--set", "scenario.duration=240",
                    "--out", "sim.csv"] and not pure
    args, pure = probes["compare-240s"]
    assert args == ["compare", "--set", "scenario.duration=240",
                    "--out", "cmp.csv", "--plot", "cmp.svg"] and not pure


def test_json_stdout_difference_is_sized_per_key_path():
    # two documents one after another, as smallsignal prints them
    base = (b'{\n  "GFM_FR": {"nadir_hz": 49.7, "t_nadir_s": 10.7},\n'
            b'  "A": [[1.0, 2.0], [3.0, 4.0]], "status": "ok", "ok": true\n}\n'
            b'{"lasalle": 0.5}\n')
    change = (b'{\n  "GFM_FR": {"nadir_hz": 49.75, "t_nadir_s": 10.7},\n'
              b'  "A": [[1.0, 2.5], [3.0, 3.75]], "status": "no-droop",'
              b' "ok": false\n}\n{"lasalle": 0.5}\n')
    assert diff_outputs.size_json_difference(base, change) == [
        "    largest |change - base|: A 0.5, GFM_FR.nadir_hz 0.05, "
        "GFM_FR.t_nadir_s 0, ok text, status text, lasalle 0"]
    # a missing key, a list of another length and NaN are text differences
    assert diff_outputs.size_json_difference(
        b'{"a": NaN, "b": [1], "c": 1}', b'{"a": 1, "b": [1, 2]}') == [
        "    largest |change - base|: a text, b text, c text"]


@pytest.mark.parametrize("text", [b"v_w,eta\n8,0.9\n", b"", b'{"a": 1} x'])
def test_json_difference_not_sized_for_other_text(text):
    assert diff_outputs.size_json_difference(b'{"a": 1}', text) == \
        ["    not sized: not JSON"]


def test_child_peak_rss_is_recorded(tmp_path):
    # a child that holds 40 MB and exits with 5
    code = "b = bytearray(40 << 20); print('held'); raise SystemExit(5)"
    with open(tmp_path / "stdout", "wb") as out:
        rc, rss = diff_outputs.run_child([sys.executable, "-c", code],
                                         tmp_path, None, out,
                                         tmp_path / "stderr")
    assert rc == 5
    assert (tmp_path / "stdout").read_bytes() == b"held\n"
    assert (tmp_path / "stderr").read_bytes() == b""
    assert 40 < rss < 400


def test_child_stderr_is_written_to_its_file(tmp_path):
    # it went to /dev/null, so that a failure's message was never compared
    code = ("import sys; print('out'); "
            "print('simulation failure: x', file=sys.stderr); sys.exit(2)")
    (tmp_path / "stderr").write_bytes(b"an earlier run's text\n")
    with open(tmp_path / "stdout", "wb") as out:
        rc, _ = diff_outputs.run_child([sys.executable, "-c", code], tmp_path,
                                       None, out, tmp_path / "stderr")
    assert rc == 2
    assert (tmp_path / "stdout").read_bytes() == b"out\n"
    assert (tmp_path / "stderr").read_bytes() == b"simulation failure: x\n"


def test_differing_stderr_is_an_artefact(tmp_path):
    base = dict(BASE, **{"simulate/stderr": b"simulation failure: a\n"})
    change = dict(BASE, **{"simulate/stderr": b"simulation failure: b\n"})
    assert diff_outputs.compare_dirs(side(tmp_path / "b", base),
                                     side(tmp_path / "c", change)) == [
        ("simulate/stderr", "line 1: base 'simulation failure: a' | "
                            "change 'simulation failure: b'")]


def test_probe_list_has_failures_on_both_kernels():
    probes = diff_outputs.probes(["simulate"])
    assert probes["fail-step-3pu"] == \
        (["simulate", "--set", "scenario.events=[[30,3]]"], False)
    tiny = ["simulate", "--set", "scenario.duration=3", "--set",
            "scenario.events=[[1.0,0.4]]", "--set", "sg.t_g=5e-324"]
    assert probes["fail-t_g-tiny"] == (tiny, False)
    assert probes["fail-t_g-tiny-pure"] == (tiny, True)
    assert probes["fail-events-unordered"] == \
        (["simulate", "--set", "scenario.events=[[40,0.1],[30,-0.2]]"], False)


def test_child_peak_rss_is_its_own_not_the_parents(tmp_path):
    # a child spawned directly read this process's high-water mark (vfork,
    # then exec): a `pass` read over 100 MB while this test held 120 MB
    held = bytearray(b"\x01") * (120 << 20)  # written, so resident
    with open(tmp_path / "stdout", "wb") as out:
        rc, rss = diff_outputs.run_child([sys.executable, "-c", "pass"],
                                         tmp_path, None, out,
                                         tmp_path / "stderr")
    assert held[-1] == 1 and rc == 0
    assert rss < 40


def test_child_killed_by_a_signal_reports_it(tmp_path):
    code = "import os, signal; os.kill(os.getpid(), signal.SIGTERM)"
    with open(tmp_path / "stdout", "wb") as out:
        rc, _ = diff_outputs.run_child([sys.executable, "-c", code],
                                       tmp_path, None, out,
                                       tmp_path / "stderr")
    assert rc == -15


def test_probe_lines_give_verdict_and_peak_rss():
    diffs = [("compare/files/cmp_GFM_FR.csv", "line 2: ..."),
             ("compare/stdout", "line 3: ...")]
    assert diff_outputs.probe_lines({"simulate": 67.125, "compare": 50.0},
                                    {"simulate": 55.25, "compare": 50.0},
                                    diffs) == [
        "simulate: identical; peak RSS 67.1 -> 55.2 MB (-17.7%)",
        "compare: 2 differing; peak RSS 50.0 -> 50.0 MB (+0.0%)"]


# Each kind of line; the comments say which count as code
PY_LINES = (b'"""A module docstring\n'                 # docstring
            b'on two lines."""\n'                      # docstring
            b'import math  # a trailing comment\n'     # code
            b'\n'                                      # blank
            b'# a comment\n'                           # comment
            b'def f(x):\n'                             # code
            b'    """A one-line docstring."""\n'       # docstring
            b'    s = """a string on\n'                # code
            b'    two lines"""\n'                      # code
            b'    return x\n'                          # code
            b'class C:\n'                              # code
            b'    """A class docstring."""\n'          # docstring
            b'    y = 1\n')                            # code
C_LINES = (b'/* a block comment\n'                     # comment
           b'   on two lines */\n'                     # comment
           b'int k; // a trailing comment\n'           # code
           b'\n'                                       # blank
           b'// a line comment\n'                      # comment
           b'const char *s = "/* not a comment */";\n'  # code
           b'int j; /* a comment that\n'               # code
           b'ends here */ int i;\n')                   # code


def test_source_lines_count_the_package_python_and_c(tmp_path):
    base = side(tmp_path / "b", {
        "src/windgfm/a.py": PY_LINES,
        "src/windgfm/_kernel/k.py": b"z = 3\n",
        "src/windgfm/_kernel/k.c": C_LINES,
        # neither a package source nor a Python or C file
        "src/windgfm/__pycache__/a.cpython-311.pyc": b"\0\n\0\n",
        "src/windgfm/README.md": b"text\n",
        "tools/t.py": b"w = 4\n"})
    change = side(tmp_path / "c", {"src/windgfm/a.py": b"x = 1\n",
                                   "src/windgfm/_kernel/k.c": b"int k;\n"})
    lines_b = diff_outputs.source_lines(base)
    lines_c = diff_outputs.source_lines(change)
    assert lines_b == {"py": 14, "py code": 8, "c": 8, "c code": 4}
    assert lines_c == {"py": 1, "py code": 1, "c": 1, "c code": 1}
    assert diff_outputs.source_line(lines_b, lines_c) == (
        "src/windgfm lines: py 14 -> 1 (-13), py code 8 -> 1 (-7), "
        "c 8 -> 1 (-7), c code 4 -> 1 (-3)")