#!/bin/sh
# Record one call map of the reach ratchet's entry points into DIR:
#
#     sh tests/reach/collect.sh DIR
#     python tests/reach/report.py DIR --check tests/reach/flagged.txt
#
# The entry points are bench smoke, every example and the tier-1 suite;
# the profiled figure benches under benchmarks/ are left out (they take
# minutes under the profiler and rewrite benchmarks/results/).
# tests/reach/flagged.txt is built from these same runs.  A failing
# test does not stop the collection, but its status is the script's.
set -u
[ $# -eq 1 ] || { echo "usage: $0 DIR" >&2; exit 2; }
mkdir -p "$1"
out=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root" || exit 2
export REACH_OUT="$out" PYTHONPATH="$root/tests/reach:$root/src"
status=0
REACH_ENTRY=bench-smoke python3 bench/run.py --smoke --seed 1 \
    > /dev/null || status=1
for f in examples/*.py; do
    REACH_ENTRY=$f python3 "$f" > /dev/null || status=1
done
REACH_ENTRY=tests python3 -m pytest -q -p no:cacheprovider || status=1
exit $status
