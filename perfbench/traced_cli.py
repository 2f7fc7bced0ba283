"""Run the `mgpd` command line with the benchmark's spans recorded.

    python perfbench/traced_cli.py SPANS_OUT TRACE_ID MGPD_ARGS...

Behaves as `python -m measured_groupoids.cli MGPD_ARGS...` (same output and
exit code) and writes the spans of the process's public calls to SPANS_OUT
when it ends. The program must be importable (PYTHONPATH=src).
"""

import sys

from spans import Tracer


def main() -> None:
    out, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from measured_groupoids import cli

    tracer = Tracer()
    tracer.trace_id = trace_id
    tracer.phase = "pass"
    try:
        with tracer:
            code = cli.main(argv)
    finally:
        tracer.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
