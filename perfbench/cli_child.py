"""Run the projgeo CLI in-process under the benchmark tracer.

    python3 perfbench/cli_child.py COUNTERS.json [projgeo arguments...]

Exits with the CLI's exit code and writes the tracer totals and the
wall time of ``cli.main`` to COUNTERS.json, so the parent can split a
process's wall time into start-up and main.
"""

import json
import sys
import time

from tracer import Tracer

from projgeo import cli


def main() -> int:
    counters, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.active = False
        tracer.restore()
        with open(counters, "w", encoding="utf-8") as fh:
            json.dump({"tracer": tracer.state(), "main_s": main_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
