"""Hangs become failures.

Tier-1 has no per-test timeout plugin (``pytest-timeout`` is not
installed), so a wedged funnel, GC or barrier used to stall the whole
gate silently.  Every test here runs under a standard-library
watchdog instead: ``faulthandler.dump_traceback_later(..., exit=True)``
is armed when the test starts and cancelled when it ends, so a test
that outlives ``WATCHDOG_SECONDS`` dumps every thread's stack to the
real stderr and kills the run with a non-zero status.
"""

import faulthandler
import os

import pytest

#: far above the slowest tier-1 test (~20 s); a hang, not a slow test.
WATCHDOG_SECONDS = 300

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
