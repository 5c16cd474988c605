"""The call-map collector in ``tests/reach``: forked children and
``sys.setprofile(None)`` must not lose calls, and the report joins the
dumps to the functions defined under ``src/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
REACH = REPO / "tests" / "reach"

SCRIPT = """
import multiprocessing as mp
import sys

from repro.util.rng import seeded_rng
from repro.util.serialization import crc32_of


def child():
    crc32_of(b"reached from the forked child")


if __name__ == "__main__":
    sys.setprofile(None)  # what pytest-benchmark does around each call
    seeded_rng(1)
    p = mp.get_context("fork").Process(target=child)
    p.start()
    p.join(timeout=30)
    assert p.exitcode == 0, p.exitcode
"""


def test_collector_follows_forks_and_survives_setprofile_none(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(SCRIPT)
    out = tmp_path / "dumps"
    env = dict(os.environ, REACH_OUT=str(out), REACH_ENTRY="tests-demo",
               PYTHONPATH=os.pathsep.join([str(REACH), str(REPO / "src")]))
    subprocess.run([sys.executable, str(script)], env=env, check=True,
                   timeout=60)
    dumps = [json.loads(f.read_text()) for f in out.glob("*.json")]
    by_pid = {d["pid"]: {q for _, q, _ in d["calls"]} for d in dumps}
    assert len(by_pid) == 2, by_pid  # the script's process and its child
    assert all(d["entry"] == "tests-demo" for d in dumps)
    parent = [q for q in by_pid.values() if "seeded_rng" in q]
    child = [q for q in by_pid.values() if "crc32_of" in q]
    assert parent and child and parent != child, by_pid

    report = subprocess.run(
        [sys.executable, str(REACH / "report.py"), str(out),
         "--src", str(REPO / "src"), "--flagged-only"],
        capture_output=True, text=True, check=True, timeout=60).stdout
    only_tests = report.split("# reached only by tests*")[1]
    assert "seeded_rng" in only_tests and "crc32_of" in only_tests
    assert report.splitlines()[-1].startswith("# totals: ")
