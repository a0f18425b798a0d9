import os
import sys

# One numerical thread, as perfbench runs, set before numpy is imported:
# numpy's OpenBLAS otherwise starts a thread per CPU, and the cloud writer
# forks (and so is tested on its two-process path) only in a process that
# is its one OS thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=60, deadline=None,
                          derandomize=True)
settings.load_profile("ci")


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs, and the list of ``os.fork`` calls made in this process;
    the test fails if it leaves a child behind."""
    from hopfdiag import spectrum

    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "fork", counted)
    assert spectrum._may_fork(), "the test process has another thread"
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
