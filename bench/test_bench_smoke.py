"""The benchmark still runs against the current API.

Collected by the tier-1 command (``python -m pytest`` from the root), so
a change to the program that breaks ``adapters.py`` is seen at once and
not when the next performance claim is made.  ``run.py --smoke`` runs
one op of every workload and every layer probe at two repeats, checks
each op's result, and fails unless every metric ``BENCHMARK.json``
names comes out as a finite number.
"""

import json
import multiprocessing as mp
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the workloads run on the fork-based process backends")


def test_smoke_prints_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    schema = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    printed = proc.stdout
    for w in schema["workloads"]:
        for m in schema["end_to_end"]:
            assert any(line.split()[:2] == [w["name"], m["name"]]
                       for line in printed.splitlines()), (w, m)
    for m in schema["per_layer"]:
        assert f" {m['name']} " in printed, m
