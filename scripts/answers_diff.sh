#!/bin/sh
# Answer identity between two checkouts: the check a change that must
# keep every answer byte-identical runs against its parent. Builds
# `ptan` in PARENT_TREE and CHANGE_TREE, then compares the two builds'
# output, byte for byte, on:
#
#   - `ptan analyze --no-cache` over benchmarks/*.c and six generated
#     programs (web, deep and knot shapes of docs/CORPUS.md at 600 and
#     1000 lines), under five option sets: the default,
#     --heap-by-site, --no-context, --no-share-contexts and
#     --no-context --no-definite;
#   - `ptan ig` and `ptan constants --no-cache` on the same files under
#     the default options.
#
#   scripts/answers_diff.sh PARENT_TREE CHANGE_TREE
#
# A tree is a checkout of the repository (for example a `git archive`
# of the parent commit). The programs are read from CHANGE_TREE and
# generated by its build. Exit status: 0 when every output agrees, 1
# at the first difference (naming the file and the flags, with the
# first lines of the diff), 2 on a usage or build error.
set -eu

[ $# -eq 2 ] || {
  echo "usage: $0 PARENT_TREE CHANGE_TREE" >&2
  exit 2
}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

for tree in "$parent" "$change"; do
  dune build --root "$tree" --display=quiet --no-print-directory bin/ptan.exe || exit 2
done
old="$parent/_build/default/bin/ptan.exe"
new="$change/_build/default/bin/ptan.exe"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# gen NAME FLAGS...: a corpus-shaped program in the scratch directory
gen() {
  name=$1
  shift
  "$new" gen "$@" --out "$work/$name.c" >/dev/null 2>&1 || {
    echo "answers_diff: ptan gen $* failed" >&2
    exit 2
  }
}
for size in 600 1000; do
  gen "web-$size" --seed 11 --size "$size" --depth 4 --fnptr-density 30
  gen "deep-$size" --seed 23 --size "$size" --depth 7 --fnptr-density 0 --structs 50
  gen "knot-$size" --seed 37 --size "$size" --depth 4 --fnptr-density 15 --recursion 30
done

# same FILE SUBCOMMAND [FLAGS...]: both builds print the same, or exit 1
same() {
  file=$1
  shift
  "$old" "$@" "$file" >"$work/old.out" 2>&1 && s_old=0 || s_old=$?
  "$new" "$@" "$file" >"$work/new.out" 2>&1 && s_new=0 || s_new=$?
  if [ "$s_old" -ne "$s_new" ] || ! cmp -s "$work/old.out" "$work/new.out"; then
    echo "answers differ: $file: ptan $* (exit $s_old -> $s_new)"
    diff "$work/old.out" "$work/new.out" | head -20 | cut -c1-300
    exit 1
  fi
}

n=0
for file in "$change"/benchmarks/*.c "$work"/*.c; do
  for flags in "" "--heap-by-site" "--no-context" "--no-share-contexts" \
    "--no-context --no-definite"; do
    # shellcheck disable=SC2086 # the flags split on purpose
    same "$file" analyze --no-cache $flags
  done
  same "$file" ig
  same "$file" constants --no-cache
  n=$((n + 1))
done
echo "answers agree on $n programs (5 analyze option sets, ig, constants)"
