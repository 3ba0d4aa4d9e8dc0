"""Shared test settings and fixtures.

One hypothesis profile for the whole suite: no per-example deadline, since
the speed of a shared host can swing by ~1.8x within minutes and a deadline
then fails correct code at random; and no example database, so a test run
writes nothing into the checkout.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("jobmarket", deadline=None, database=None)
settings.load_profile("jobmarket")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the noise producers forked during the test. Two usable
    CPUs are assumed, so a large NoiseStream forks on any host."""
    from jobmarket import brownian

    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: 2)
    return pids
