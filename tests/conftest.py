import os

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "treeloss",
    deadline=None,
    max_examples=60,
    derandomize=True,
    print_blob=False,
)
hypothesis.settings.load_profile("treeloss")


@pytest.fixture
def stub_fork(monkeypatch) -> list:
    """Make ``os.fork`` start no process, and return the list of its calls.

    Each call returns a pid above any the kernel hands out, whose pipe the
    parent then reads empty, so a pool with w workers forks w - 1 times and
    then fails with "sent no results". Waiting on or killing those pids does
    nothing.
    """
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or 2**22 + len(forks))
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (pid, 0))
    monkeypatch.setattr(os, "kill", lambda pid, sig: None)
    return forks
