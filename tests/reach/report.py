"""Join call-map dumps to the functions defined under ``src/``.

Usage::

    python tests/reach/report.py DUMP_DIR [--src src] [--flagged-only]
    python tests/reach/report.py DUMP_DIR --check tests/reach/flagged.txt

Reads every JSON dump ``sitecustomize.py`` wrote to ``DUMP_DIR``, lists
every function and method under ``src/`` (by AST, so a function no run
imported still counts) and prints, per function, the entry labels
(``REACH_ENTRY``) of the runs that reached it.  Two groups are flagged:
functions reached by nothing, and functions reached only by runs whose
label starts with ``tests``.  The last line is the totals.

``--check FILE`` is the ratchet.  ``FILE`` lists flagged functions, one
``path qualname`` a line (path relative to ``--src``, no line number,
so unrelated edits do not churn it); ``#`` starts a comment, which is
where a newly listed function's reason goes.  The check prints every
function flagged now but not listed, in that format, and exits 1 if
there is one.  Listed functions that are no longer flagged are only
reported: a function may leave the list at any time.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
from collections import defaultdict
from pathlib import Path

#: entry labels of the tier-1 suite's runs start with this.
TESTS_PREFIX = "tests"

def defined_functions(src: Path) -> list[tuple[str, str, int]]:
    """``(path relative to src, qualname, first line)`` of every def;
    the first line is the first decorator's, as on the code object."""
    out = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    out.append((rel, qual, first))
                    visit(child, f"{qual}.<locals>.")

        visit(ast.parse(path.read_text()), "")
    return out


def load_reach(dump_dir: Path) -> dict[tuple[str, str, int], set[str]]:
    """``(path, qualname, first line) -> entry labels that called it``."""
    reach: dict[tuple[str, str, int], set[str]] = defaultdict(set)
    for f in sorted(dump_dir.glob("*.json")):
        dump = json.loads(f.read_text())
        for path, qual, line in dump["calls"]:
            reach[(path, qual, line)].add(dump["entry"])
    return reach


def read_listed(path: Path) -> set[str]:
    """The ``path qualname`` keys of a ratchet file."""
    keys = set()
    for line in path.read_text().splitlines():
        key = " ".join(line.split("#", 1)[0].split())
        if key:
            keys.add(key)
    return keys


def check(flagged: set[str], listed_file: Path) -> int:
    """Fail on functions flagged now but not listed in ``listed_file``."""
    listed = read_listed(listed_file)
    new, gone = sorted(flagged - listed), sorted(listed - flagged)
    if gone:
        print(f"# listed but no longer flagged ({len(gone)}); they may "
              f"leave {listed_file}:")
        print("\n".join(gone))
    if new:
        print(f"# flagged but not listed ({len(new)}): reach each from a "
              f"real entry point, delete it, or list it in {listed_file} "
              f"with a reason:")
        print("\n".join(new))
        return 1
    print(f"# ratchet holds: {len(flagged)} flagged, all listed")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dumps", type=Path)
    ap.add_argument("--src", type=Path, default=Path("src"))
    ap.add_argument("--flagged-only", action="store_true")
    ap.add_argument("--check", type=Path, metavar="FILE")
    args = ap.parse_args(argv)
    reach = load_reach(args.dumps)
    defs = defined_functions(args.src)
    if args.check is not None:
        # a key is flagged if any def under it is: two defs may share a
        # qualname in one file, and a reached one must not hide the other.
        flagged = set()
        for key in defs:
            entries = reach.get(key, set())
            if all(e.startswith(TESTS_PREFIX) for e in entries):
                flagged.add(f"{key[0]} {key[1]}")
        return check(flagged, args.check)
    nothing, tests_only = [], []
    for key in defs:
        entries = reach.get(key, set())
        path, qual, line = key
        where = f"{os.path.join(str(args.src), path)}:{line} {qual}"
        if not entries:
            nothing.append(where)
        elif all(e.startswith(TESTS_PREFIX) for e in entries):
            tests_only.append(where)
        elif not args.flagged_only:
            print(f"{where}  <- {', '.join(sorted(entries))}")
    for label, group in (("reached by nothing", nothing),
                         (f"reached only by {TESTS_PREFIX}*",
                          tests_only)):
        print(f"\n# {label}: {len(group)}")
        for where in group:
            print(f"{where}")
    total = len(nothing) + len(tests_only)
    print(f"\n# totals: {len(defs)} functions, "
          f"{len(nothing)} reached by nothing, {len(tests_only)} only by "
          f"{TESTS_PREFIX}*, {total} flagged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
