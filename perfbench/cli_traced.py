"""Run one ``confdim`` command with the benchmark's tracing installed.

Usage: ``python cli_traced.py TRACE_FILE <confdim arguments>``.  The report
goes to stdout as usual; the spans and counts go to TRACE_FILE as JSON.  The
time spent importing the tracer and gathering its spans counts as tracing
overhead, as does the tracer's own time around each call.
"""

import json
import os
import sys
import time


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    from confdim import cli

    entered = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer

    tracer = Tracer()
    tracer.counts["overhead_s"] += time.perf_counter() - entered
    tracer.install()
    try:
        code = cli.run(argv)
    finally:
        tracer.uninstall()
        entered = time.perf_counter()
        export = tracer.export()
        export["counts"]["overhead_s"] += time.perf_counter() - entered
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(export, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
