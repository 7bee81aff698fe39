"""Hypothesis draws the same examples on every run: each property is seeded
from a hash of its test function instead of a fresh random seed.

After every test, no child process may be left: a `wegner` sweep's worker
pool must be shut down and reaped whether the sweep passed or failed."""

import multiprocessing
import os

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    assert not multiprocessing.active_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
