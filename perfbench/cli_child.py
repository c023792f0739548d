"""Traced stand-in for `python -m lrhopf.cli`, used by the traced run of
cli-sweep.  It installs the tracer in this process, runs the CLI's main()
with the given arguments and writes the trace summary, its spans and the
in-process main() time to the file named by PERFBENCH_TRACE_OUT."""

import json
import os
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    out = os.environ["PERFBENCH_TRACE_OUT"]
    import lrhopf.cli

    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        return lrhopf.cli.main(sys.argv[1:])
    finally:
        main_s = perf_counter() - t0
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"main_s": main_s, "summary": tracer.summary(),
                       "names": tracer.names, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
