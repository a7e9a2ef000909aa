"""Run one qkoshy command the way its console script does.

    python3 perfbench/launch.py ARGS...

is `qkoshy ARGS...` with one addition: just before the call into
qkoshy.cli.run it writes a line "perfbench-ready <clock> <import seconds>"
to stderr, so the benchmark can split set-up from the rest.  The clock is
CLOCK_MONOTONIC, which every process on the machine shares.  With
PERFBENCH_TRACE=PREFIX in the environment the layers are traced
(tracer.py) and the spans are written to PREFIX.<pid>.*.
"""

import os
import sys
import time


def main():
    trace = os.environ.get("PERFBENCH_TRACE")
    t_import = time.clock_gettime(time.CLOCK_MONOTONIC)
    from qkoshy import cli
    import_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_import
    tr = None
    if trace:
        import tracer
        tr = tracer.install(trace)
        run_nid = tr.nid("cli.run")
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    sys.stderr.write("perfbench-ready %r %r\n" % (ready, import_s))
    if tr is None:
        return cli.run(sys.argv[1:])
    i = tr.open(run_nid)
    try:
        return cli.run(sys.argv[1:])
    finally:
        tr.close(i)
        tr.dump(extra={"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
