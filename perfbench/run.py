"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The BLAS thread pools are pinned to one thread here, before numpy is first
imported, so that LU times do not depend on how many cores the machine
happens to have free.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    os.environ.update({var: "1" for var in THREAD_VARS})
    import bench

    sys.exit(bench.main(sys.argv[1:]))
