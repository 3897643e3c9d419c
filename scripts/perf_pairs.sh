#!/bin/sh
# Paired perf runs: the measurement perf/README.md prescribes for a
# claimed gain. Runs `perf.exe run --workload WORKLOAD` in PARENT_TREE
# and CHANGE_TREE on seeds 1..PAIRS, SECONDS each, untraced, so that the
# two runs of a pair are back to back and the pairing rule cancels the
# host's drift. The tree that runs first alternates from pair to pair
# (odd seeds: parent first; even seeds: change first), so that neither
# side always takes the slot after the other's run. The result
# files go to perf-pairs/parent/ and perf-pairs/change/ under the
# working directory, which are emptied first; then `perf.exe compare`
# prints the verdict table (a gain needs at least 10 pairs).
#
#   scripts/perf_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD PAIRS SECONDS
#
# A tree is a checkout of the repository (for example a `git archive`
# of the parent commit); each is built first. Exit status: that of
# `perf.exe compare` (1 when it finds a regression), or 2 when a run
# fails its output checks or writes no result.
set -eu

[ $# -eq 5 ] || {
  echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD PAIRS SECONDS" >&2
  exit 2
}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=$5

out="$(pwd)/perf-pairs"
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

for tree in "$parent" "$change"; do
  dune build --root "$tree" --display=quiet --no-print-directory perf/perf.exe
done

# run SIDE TREE SEED
run() {
  file="$out/$1/$workload-seed$3.json"
  echo "perf_pairs: $1 $workload seed $3" >&2
  if ! (cd "$2" && ./_build/default/perf/perf.exe run --workload "$workload" --seed "$3" \
      --seconds "$seconds" --trace 0 --out "$file" >/dev/null) || [ ! -s "$file" ]; then
    echo "perf_pairs: the $1 run of seed $3 failed" >&2
    exit 2
  fi
}

seed=1
while [ "$seed" -le "$pairs" ]; do
  if [ $((seed % 2)) -eq 1 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  seed=$((seed + 1))
done

cd "$change"
./_build/default/perf/perf.exe compare "$out/parent" "$out/change"
