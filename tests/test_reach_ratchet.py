"""The reach ratchet: ``tests/reach/report.py --check``."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "reach_report", Path(__file__).parent / "reach" / "report.py")
report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report)

SRC = '''
def used():
    pass

def only_tested():
    pass

def dead():
    pass

class K:
    def m(self):
        pass
'''


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text(SRC)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    line = {name: i for i, text in enumerate(SRC.splitlines(), 1)
            for name in ("used", "only_tested", "m")
            if f"def {name}(" in text}
    for entry, calls in (("bench-smoke", [("used", "used"),
                                          ("K.m", "m")]),
                         ("tests", [("only_tested", "only_tested")])):
        (dumps / f"{entry}.json").write_text(json.dumps({
            "entry": entry, "pid": 1,
            "calls": [["pkg/mod.py", q, line[n]] for q, n in calls]}))
    return tmp_path


def _check(tree, listed, capsys):
    f = tree / "flagged.txt"
    f.write_text(listed)
    code = report.main([str(tree / "dumps"), "--src", str(tree / "src"),
                        "--check", str(f)])
    return code, capsys.readouterr().out


def test_holds_when_every_flagged_function_is_listed(tree, capsys):
    code, out = _check(tree, "# header\npkg/mod.py dead\n"
                             "pkg/mod.py only_tested  # a reason\n", capsys)
    assert code == 0
    assert "2 flagged, all listed" in out


def test_fails_on_a_newly_flagged_function(tree, capsys):
    code, out = _check(tree, "pkg/mod.py dead\n", capsys)
    assert code == 1
    assert out.splitlines()[-1] == "pkg/mod.py only_tested"


def test_a_function_may_leave_the_list(tree, capsys):
    code, out = _check(tree, "pkg/mod.py dead\npkg/mod.py only_tested\n"
                             "pkg/mod.py used\n", capsys)
    assert code == 0
    assert "no longer flagged (1)" in out
    assert "pkg/mod.py used" in out.splitlines()
