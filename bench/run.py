#!/usr/bin/env python3
"""Benchmark of pvar: Monte Carlo replication rate and CLI call latency.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-size-weak --seed 1 --seconds 20 --trace 0

The workloads, metrics and reference figures are described in
bench/README.md.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; --trace 1 reports the
per-layer metrics instead of the end-to-end ones.
"""

import os
import sys

#: BLAS worker threads compete with each other on this package's small
#: matrices, so every timing would depend on machine load.  The pin is
#: set before numpy is imported and inherited by every spawned process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)
    from workloads import main
    sys.exit(main(sys.argv[1:]))
