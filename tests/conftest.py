"""Test-session setup shared by every test module.

BLAS and OpenMP run one thread each, as in ``perfbench``.  Their default
pools take every core and slow down when another process competes for one:
on a 2-core x86 machine running one other single-threaded process,
acceptance 04 took 19-21 s of its 30 s budget with the default pools and
10 s with one thread.  ``setdefault`` keeps a value the caller exported.
pytest imports this module before any test module, hence before numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
