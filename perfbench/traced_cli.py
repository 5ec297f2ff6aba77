"""`python -m cayleypst` with the tracer installed.

Usage: traced_cli.py TRACE_OUT CLI_ARGS...  Stdout, stderr and the exit code
are the command's own; the span aggregates go to TRACE_OUT as JSON.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from cayleypst import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
