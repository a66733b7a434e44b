"""Pin every BLAS/OpenMP backend to one thread.

Import this module before numpy: the backends read these variables once, when
numpy loads them.  The benchmark runs in a single process and thread, so
a multi-threaded matvec would both skew the per-call timings and fight the
other processes on the machine for cores.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

for _var in THREAD_VARS:
    os.environ[_var] = "1"
