#!/bin/sh
# Record one call map of the reach ratchet's entry points into DIR:
#
#     sh tests/reach/collect.sh DIR
#     python tests/reach/report.py DIR --check tests/reach/flagged.txt
#
# The entry points are bench smoke, every example, the nine figure and
# ablation benches under benchmarks/ and the tier-1 suite.  The figure
# benches run from a copy of benchmarks/ made under DIR, so the tables
# they write land there and the checkout's benchmarks/results/ is left
# as it was.  tests/reach/flagged.txt is built from these same runs.  A
# failing test does not stop the collection, but its status is the
# script's (Figure 3's 32 P shape assertion fails on every host: ROADMAP
# item 7).
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
rm -rf "$out/benchmarks"
cp -R benchmarks "$out/benchmarks"
(cd "$out/benchmarks" && REACH_ENTRY=figures python3 -m pytest -q \
    -p no:cacheprovider bench_fig3_checkpoint_overhead.py \
    bench_fig4_save_cost.py bench_fig5_restart.py \
    bench_fig6_restart_expansion.py bench_fig7_expansion.py \
    bench_fig8_overdecomposition.py bench_fig9_adaptability.py \
    bench_ablation_schedule.py bench_ablation_ckpt.py) > /dev/null \
    || status=1
REACH_ENTRY=tests python3 -m pytest -q -p no:cacheprovider || status=1
exit $status
