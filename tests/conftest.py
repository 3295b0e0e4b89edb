"""Test-session setup, loaded before any test module imports numpy or scipy.

numpy's and scipy's BLAS libraries each start worker threads that spin
between calls.  The arrays here are far too small to gain from them, and in
the Monte-Carlo process pool every worker starts its own, so spinning threads
outnumber the cores and the pool runs slower than one process.  Pin them to
one thread, as perfbench/run.py does; a value already set is kept.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")
