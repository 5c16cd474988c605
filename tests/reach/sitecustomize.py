"""Call-map collector: which ``src/repro`` functions a run reaches.

Armed only when ``REACH_OUT`` names a directory; put this directory
first on the path so Python imports it at start-up::

    REACH_OUT=/tmp/reach REACH_ENTRY=bench-smoke \\
        PYTHONPATH=tests/reach:src python3 bench/run.py --smoke --seed 1

Every process of the run — threads through ``threading.setprofile``,
forked children through the inherited profiler, spawned children
through this module again — records the code objects under
``src/repro`` that saw a ``call`` event, and writes them to one JSON
file in ``REACH_OUT`` when it exits: at interpreter exit, or from
``os._exit``, which is how forked ``multiprocessing`` children leave.
``REACH_ENTRY`` labels the run (default: the command line).

``sys.setprofile(None)`` is ignored while armed: pytest-benchmark
pauses instrumentation around every benchmarked call that way, which
would otherwise drop the main thread's calls for good.

``report.py`` beside this file joins the dumps to the functions
defined under ``src/``.  Standard library only.
"""

import atexit
import json
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src", "repro") + os.sep

_hits: set = set()
_skip: set = set()


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _hits or code in _skip:
        return
    if os.path.abspath(code.co_filename).startswith(_SRC):
        _hits.add(code)
    else:
        _skip.add(code)


def _entry() -> str:
    return os.environ.get("REACH_ENTRY") or " ".join(sys.argv)


def _dump() -> None:
    hits = [[os.path.relpath(os.path.abspath(c.co_filename),
                             os.path.dirname(_SRC.rstrip(os.sep))),
             c.co_qualname, c.co_firstlineno] for c in list(_hits)]
    name = f"{os.getpid()}-{os.urandom(4).hex()}.json"
    with open(os.path.join(_OUT, name), "w") as f:
        json.dump({"entry": _entry(), "pid": os.getpid(), "calls": hits}, f)


def _arm() -> None:
    os.makedirs(_OUT, exist_ok=True)
    real_setprofile, real_exit = sys.setprofile, os._exit

    def setprofile(fn):
        if fn is not None:
            real_setprofile(fn)

    def _exit(code):
        _dump()
        real_exit(code)

    sys.setprofile = setprofile
    os._exit = _exit
    os.register_at_fork(after_in_child=_hits.clear)
    atexit.register(_dump)
    threading.setprofile(_profile)
    real_setprofile(_profile)


if _OUT:
    _arm()
