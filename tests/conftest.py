import os
import sys

# One numerical thread, as perfbench runs, set before numpy is imported:
# numpy's OpenBLAS otherwise starts a thread per CPU, and the cloud writer
# forks (and so is tested on its two-process path) only in a process that
# is its one OS thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypothesis import settings

settings.register_profile("ci", max_examples=60, deadline=None,
                          derandomize=True)
settings.load_profile("ci")
