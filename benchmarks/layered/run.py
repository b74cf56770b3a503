#!/usr/bin/env python3
"""Layered benchmark entry point.

    python3 benchmarks/layered/run.py --seed 7
        all four workloads, each in its own single-threaded child
        process: untraced (end-to-end metrics), then traced (per-layer
        metrics); prints every metric by name and writes one JSON result.

    python3 benchmarks/layered/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload in this process; the last line of
        standard output is the result as one JSON object.

    python3 benchmarks/layered/run.py --compare A.json B.json
        apply the bounds of BENCHMARK.json to two results.

See README.md in this directory.
"""

import os
import sys
from pathlib import Path

#: BLAS pools must be pinned before numpy is first imported; the
#: benchmark (the runner), not the program, sets this.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main() -> int:
    os.environ.update(THREAD_PINS)
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parents[1] / "src"), str(here)]
    from layeredbench.cli import main as cli_main

    return cli_main(sys.argv[1:], script=Path(__file__).resolve(), thread_pins=THREAD_PINS)


if __name__ == "__main__":
    sys.exit(main())
