"""The test session runs each BLAS pool on one thread, as the root conftest.py sets."""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

TASKS = Path("/proc/self/task")


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task")
def test_blas_pools_add_no_thread_to_the_session():
    # a pool of more than one thread shows as native threads beside the
    # interpreter's own; a thread that a call has just joined may still be
    # leaving, so the count gets a moment to settle
    import scipy.linalg

    assert all(os.environ[name] == "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"))
    a = np.ones((256, 256))
    assert np.all(a @ a == 256.0) and np.all(scipy.linalg.blas.dgemm(1.0, a, a) == 256.0)
    deadline = time.monotonic() + 5
    while len(list(TASKS.iterdir())) > threading.active_count() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(list(TASKS.iterdir())) == threading.active_count()
