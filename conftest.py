"""Settings for every test session of this checkout (tests/ and bench/).

pytest loads this file before any test module, so the BLAS thread variables
below are set before numpy loads, as bench/run.py sets them for the
benchmark.  numpy and scipy each bundle an OpenBLAS whose default pool has
one thread per core; its threads spin while they wait, on the cores that
the block worker thread of the estimators and the oracle runs on.  One
oracle call at the criterion-4 scenario (b = 1, 1e5 trials) took 3.9-4.4 s
wall and 7.6 s CPU with the default pools, and 2.1-2.3 s wall and 3.8-4.1 s
CPU with one thread each (three runs each way, 2-vCPU host, numpy 2.4).
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
