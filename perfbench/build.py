"""Stage the windgfm package with its compiled kernel, outside ``src/``.

``setup.py`` builds the Cython extension only when Cython is installed, but
the generated ``_ode_cy.c`` is committed and compiles with a plain C
compiler.  The benchmark measures that compiled kernel: it copies the Python
sources of ``src/windgfm`` into ``.bench_build/perfbench/stage-<hash>/``,
compiles ``_ode_cy.c`` there, byte-compiles the package, and puts the stage
on ``PYTHONPATH``.  Nothing is written under ``src/``.  The stage is keyed by
a hash of the sources and the toolchain, so an edited source rebuilds it.
"""
from __future__ import annotations

import compileall
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "windgfm"
BUILD = ROOT / ".bench_build" / "perfbench"
KERNEL_C = Path("_kernel") / "_ode_cy.c"
CC = os.environ.get("CC", "cc")
CFLAGS = ["-O3", "-fPIC", "-shared", "-DNDEBUG", "-w"]


class BuildError(RuntimeError):
    pass


def _numpy_include() -> str:
    import numpy
    return numpy.get_include()


def _sources() -> list[Path]:
    if not (SRC / KERNEL_C).is_file():
        raise BuildError(f"{SRC / KERNEL_C} not found: run from the root of "
                         "a windgfm checkout")
    return sorted(p for p in SRC.rglob("*")
                  if p.is_file() and p.suffix in (".py", ".c"))


def stage_key(sources: list[Path]) -> str:
    # Keyed on numpy's install, not its version, to keep numpy's import out
    # of the benchmark's set-up.
    np_init = Path(importlib.util.find_spec("numpy").origin)
    h = hashlib.sha256()
    h.update(sys.version.encode())
    h.update(" ".join([CC, *CFLAGS, str(np_init), str(np_init.stat().st_mtime_ns)])
             .encode())
    for p in sources:
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:20]


def ensure_stage() -> Path:
    """Return the stage directory (to go on sys.path), building it if absent."""
    sources = _sources()
    stage = BUILD / f"stage-{stage_key(sources)}"
    if (stage / "READY").is_file():
        return stage
    tmp = BUILD / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    pkg = tmp / "windgfm"
    for p in sources:
        if p.suffix == ".py":
            dst = pkg / p.relative_to(SRC)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(p, dst)
    so = pkg / "_kernel" / ("_ode_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [CC, *CFLAGS, f"-I{sysconfig.get_paths()['include']}",
           f"-I{_numpy_include()}", str(SRC / KERNEL_C), "-o", str(so)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.TimeoutExpired) as e:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"cannot run {CC}: {e}") from e
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"compiling the kernel failed:\n{proc.stderr[-2000:]}")
    if not compileall.compile_dir(str(pkg), quiet=1):
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("byte-compiling the staged package failed")
    (tmp / "READY").write_text(" ".join(cmd) + "\n")
    shutil.rmtree(stage, ignore_errors=True)
    os.replace(tmp, stage)
    return stage


def child_env(stage: Path, pure: bool = False) -> dict:
    """Environment for a windgfm child process that runs from the stage."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "WINDGFM_PURE", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(stage)
    if pure:
        env["WINDGFM_PURE"] = "1"
    return env
