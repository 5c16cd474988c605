"""The tier-1 hang watchdog (``tests/conftest.py``) fails a stuck test."""

import subprocess
import sys
import time
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_hung_test_dumps_every_thread_and_fails(tmp_path):
    text = CONFTEST.read_text()
    assert "WATCHDOG_SECONDS = 300" in text
    (tmp_path / "conftest.py").write_text(
        text.replace("WATCHDOG_SECONDS = 300", "WATCHDOG_SECONDS = 1"))
    (tmp_path / "test_stuck.py").write_text(
        "import threading\n"
        "def test_quick():\n"
        "    pass\n"
        "def test_stuck():\n"
        "    threading.Event().wait(60)\n")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path)],
        capture_output=True, text=True, timeout=50, cwd=tmp_path)
    assert time.monotonic() - t0 < 30, "the watchdog never fired"
    assert proc.returncode != 0
    assert "Timeout" in proc.stderr
    assert "test_stuck.py" in proc.stderr  # the stack names the culprit
