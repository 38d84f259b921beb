"""Pin BLAS to one thread before any test imports numpy.

The suite's matrices are small, so BLAS worker threads only compete
for cores: with default threading two concurrent runs of one Monte
Carlo scenario took four times as long as one run alone.  One thread
keeps the runtime gates of the acceptance tests a measure of the code
rather than of the machine's load.  A value already set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
