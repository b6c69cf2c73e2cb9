"""Run the windgfm CLI with the benchmark's tracer installed.

Usage: python3 perfbench/bootstrap.py SPANS.json ARGS...

Imports ``windgfm.cli``, wraps windgfm's public functions (see tracer.py),
calls ``windgfm.cli.main(ARGS)`` and writes the recorded spans to SPANS.json
when it returns or raises.  The exit code is main's.
"""
import sys

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import windgfm.cli
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        return windgfm.cli.main(argv)
    finally:
        tr.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
