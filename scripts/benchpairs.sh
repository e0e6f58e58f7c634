#!/usr/bin/env bash
# Runs p2pbench on two checkouts in alternating pairs and compares the
# pairs in which neither run's host drifted. From any directory:
#
#   bash scripts/benchpairs.sh BASE_DIR NEW_DIR WORKLOAD SEED PAIRS [run.sh flags...]
#
# Each run is `bash cmd/p2pbench/run.sh --workload WORKLOAD --seed SEED`
# started in its checkout, with any further flags appended. Odd pairs run
# the base checkout first and even pairs the new one, so a slow stretch
# of the host does not always fall on one side. `--compare` refuses a
# file holding any run flagged host_drift, so a pair is kept only when
# neither of its runs is. PAIRS is the number of drift-free pairs to
# keep: the script runs pairs until it has kept that many or has run
# 3×PAIRS. The kept runs are appended to base.jsonl and new.jsonl in
# $OUT (default .bench_pairs/WORKLOAD-sSEED in the current directory),
# and every run's output stays in $OUT/runs. The script prints each
# pair's order and fate and the counts of pairs run and kept, then the
# --compare table of the two files. It fails when no pair was kept,
# since there is nothing to compare.
set -euo pipefail

if [ $# -lt 5 ]; then
	echo "usage: $0 BASE_DIR NEW_DIR WORKLOAD SEED PAIRS [run.sh flags...]" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
workload=$3 seed=$4 pairs=$5
shift 5
case "$seed$pairs" in
*[!0-9]*)
	echo "$0: SEED and PAIRS must be numbers, got '$seed' and '$pairs'" >&2
	exit 2
	;;
esac
out=${OUT:-$PWD/.bench_pairs/$workload-s$seed}
mkdir -p "$out/runs"
out=$(cd "$out" && pwd)

kept=0 i=0
while ((kept < pairs && i < 3 * pairs)); do
	i=$((i + 1))
	order="base new"
	if ((i % 2 == 0)); then
		order="new base"
	fi
	for side in $order; do
		dir=$base
		if [ "$side" = new ]; then
			dir=$new
		fi
		(cd "$dir" && bash cmd/p2pbench/run.sh --workload "$workload" --seed "$seed" "$@") \
			>"$out/runs/pair$i-$side.jsonl"
	done
	b=$out/runs/pair$i-base.jsonl n=$out/runs/pair$i-new.jsonl
	if grep -q '"host_drift":true' "$b" "$n"; then
		echo "pair $i ($order): host drift, dropped"
		continue
	fi
	cat "$b" >>"$out/base.jsonl"
	cat "$n" >>"$out/new.jsonl"
	kept=$((kept + 1))
	echo "pair $i ($order): kept"
done
echo "$workload seed $seed: $i pairs run, $kept of $pairs kept; all kept runs in $out"
if [ "$kept" -eq 0 ]; then
	echo "no drift-free pair to compare" >&2
	exit 1
fi
cd "$new" && bash cmd/p2pbench/run.sh --compare "$out/base.jsonl" "$out/new.jsonl"
