"""Hangs and leaks become failures.

Tier-1 has no per-test timeout plugin (``pytest-timeout`` is not
installed), so a wedged funnel, GC or barrier used to stall the whole
gate silently.  Every test here runs under a standard-library
watchdog instead: ``faulthandler.dump_traceback_later(..., exit=True)``
is armed when the test starts and cancelled when it ends, so a test
that outlives ``WATCHDOG_SECONDS`` dumps every thread's stack to the
real stderr and kills the run with a non-zero status.

Every test must also clean up after itself: one that leaves a new
``ppshm-*`` name in ``/dev/shm``, or a live ``multiprocessing`` child
after ``CHILD_GRACE_SECONDS``, fails — a leak surfaces at the test that
made it, not as a later test's stray segment or a full ``/dev/shm``.
"""

import faulthandler
import multiprocessing
import os
import time

import pytest

#: far above the slowest tier-1 test (~20 s); a hang, not a slow test.
WATCHDOG_SECONDS = 300
#: how long a test's child processes get to finish exiting.
CHILD_GRACE_SECONDS = 5.0
#: ``repro.dsm.shm.SHM_PREFIX`` (spelled out: the watchdog test runs a
#: copy of this file where ``repro`` is not importable).
SHM_PREFIX = "ppshm"

_stderr_fd = 2


def pytest_configure(config):
    # called with output capture suspended: keep the real stderr, so
    # the dump is not swallowed by the capture file the process dies on
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def hang_watchdog():
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True,
                                      file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


def _shm_names() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}


@pytest.fixture(autouse=True)
def leak_check():
    before = _shm_names()
    yield
    deadline = time.monotonic() + CHILD_GRACE_SECONDS
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    leaks = [f"live child {p.name}" for p in multiprocessing.active_children()]
    leaks += [f"/dev/shm/{n}" for n in sorted(_shm_names() - before)]
    if leaks:
        pytest.fail(f"test leaked: {', '.join(leaks)}", pytrace=False)
