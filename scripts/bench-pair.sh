#!/usr/bin/env bash
# Paired benchmark comparison of a base revision against the working
# tree. Run it from the repository root (or through `make bench-pair`):
#
#   bash scripts/bench-pair.sh BASE WORKLOAD PAIRS [bench/run.sh flags...]
#   bash scripts/bench-pair.sh HEAD~1 image-scale-jdp 10 --seconds 16
#
# BASE is exported with `git archive` into a fresh `mktemp -d`
# directory (removed on exit), so an interrupted run leaves nothing
# registered in the repository. Each pair runs
# `bash bench/run.sh --workload WORKLOAD --trace 0` once on each side,
# the side that goes first alternating from pair to pair, and prints
# both wall_s values, the change's delta, and whether makespan_s,
# remote_gb and mem_mb are identical. The summary gives the change's
# win count (lower wall_s) and the median of the per-pair deltas.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 BASE WORKLOAD PAIRS [bench/run.sh flags...]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3
shift 3
case $pairs in
'' | *[!0-9]*)
	echo "$0: PAIRS must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac
if [ "$pairs" -lt 1 ]; then
	echo "$0: PAIRS must be a positive integer, got '$pairs'" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
basedir=$(mktemp -d)
trap 'chmod -R u+w "$basedir" && rm -rf "$basedir"' EXIT
git -C "$root" archive "$base" | tar -x -C "$basedir"

# run DIR prints the last line of one benchmark run in DIR: its JSON
# result object.
run() {
	local dir=$1
	shift
	(cd "$dir" && bash bench/run.sh --workload "$workload" --trace 0 "$@") | tail -n 1
}

# field JSON prints "wall_s failed makespan_s remote_gb mem_mb".
field() {
	python3 -c '
import json, sys
r = json.loads(sys.argv[1])
m = r["metrics"]
print(m["wall_s"]["value"], r["failed"], repr(m["makespan_s"]["value"]),
      repr(m["remote_gb"]["value"]), repr(m["mem_mb"]["value"]))' "$1"
}

deltas=()
wins=0
printf '%-5s %12s %12s %9s  %s\n' pair base_wall_s wall_s delta e2e
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		b=$(run "$basedir" "$@")
		c=$(run "$root" "$@")
	else
		c=$(run "$root" "$@")
		b=$(run "$basedir" "$@")
	fi
	read -r bw bf bm br bmem <<<"$(field "$b")"
	read -r cw cf cm cr cmem <<<"$(field "$c")"
	d=$(python3 -c 'import sys; b, c = map(float, sys.argv[1:]); print("%+.2f" % (100 * (c - b) / b))' "$bw" "$cw")
	deltas+=("$d")
	if python3 -c 'import sys; sys.exit(not float(sys.argv[2]) < float(sys.argv[1]))' "$bw" "$cw"; then
		wins=$((wins + 1))
	fi
	e2e=same
	if [ "$bm $br $bmem" != "$cm $cr $cmem" ]; then
		e2e="DIFF (makespan_s $bm/$cm, remote_gb $br/$cr, mem_mb $bmem/$cmem)"
	fi
	if [ "$bf" != 0 ] || [ "$cf" != 0 ]; then
		e2e="$e2e, failed $bf/$cf"
	fi
	printf '%-5s %12.6f %12.6f %8s%%  %s\n' "$i" "$bw" "$cw" "$d" "$e2e"
done
median=$(printf '%s\n' "${deltas[@]}" | python3 -c '
import statistics, sys
print("%+.2f" % statistics.median(float(x) for x in sys.stdin))')
echo "$workload: change wins $wins of $pairs pairs; median wall_s delta $median% (base $base)"
