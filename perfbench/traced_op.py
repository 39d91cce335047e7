"""Run one grothpoly CLI op with the per-layer tracer installed.

    python3 perfbench/traced_op.py compute G --shape 2,1 --n 5 --deg 5

Stdout is exactly what `python -m grothpoly.cli` prints for the same
arguments.  The last line on stderr is the tracer's report as JSON, after
the marker TRACE_MARKER.
"""

import json
import sys

from tracer import Tracer

TRACE_MARKER = "@@perfbench-trace "


def main():
    tracer = Tracer()
    tracer.install()
    import grothpoly.cli
    sys.argv = ["grothpoly"] + sys.argv[1:]
    try:
        grothpoly.cli.main()
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.report()) + "\n")


if __name__ == "__main__":
    main()
