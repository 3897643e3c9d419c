#!/bin/sh
# Incremental smoke: exercise `ptan --incremental` end to end on real
# driver output — populate the stable cache entry, edit the source, and
# demand (a) the re-analysis prints per-statement sets bit-identical to
# a cold run of the edited file and (b) the dirty counter matches the
# edit: 0 for a comment-only edit (the rekey fast path), a small bounded
# cone for a one-function edit. A livc kernel edit is also checked with
# --no-share-contexts, where only persisted summaries answer a repeated
# (function, input) pair. Then run the bench's incremental section,
# whose own gates enforce suite-wide bit-identity and incremental
# beating the non-incremental cache.
# Run from the repository root after `dune build`; CI runs this as the
# incremental-smoke job. See docs/INCREMENTAL.md.
set -eu

ptan="${PTAN:-_build/default/bin/ptan.exe}"
bench="${PTAN_BENCH:-_build/default/bench/main.exe}"
[ -x "$ptan" ] || { echo "incremental_smoke: $ptan not found (dune build first)" >&2; exit 1; }
[ -x "$bench" ] || { echo "incremental_smoke: $bench not found (dune build first)" >&2; exit 1; }

tmp=$(mktemp -d)
cache="$tmp/cache"
trap 'rm -rf "$tmp"' EXIT INT TERM

# The dirty count the driver reported in an --incremental --stats run.
dirty_of() { # dirty_of FILE
  sed -n 's/^incremental:[[:space:]]*\([0-9][0-9]*\) functions dirty.*/\1/p' "$1"
}

# ---- 1. comment edit on livc: the rekey fast path ---------------------
# An IR-preserving edit must serve the old entry as a hit (0 dirty) and
# still print exactly what a cold analysis of the edited file prints.
cp benchmarks/livc.c "$tmp/livc.c"
"$ptan" analyze "$tmp/livc.c" --incremental --cache-dir "$cache" >/dev/null
printf '\n/* incremental_smoke: comment-only edit */\n' >>"$tmp/livc.c"
"$ptan" analyze "$tmp/livc.c" --no-cache | grep '^s[0-9]' >"$tmp/cold1.txt"
"$ptan" analyze "$tmp/livc.c" --incremental --cache-dir "$cache" --stats >"$tmp/incr1.txt"
grep '^s[0-9]' "$tmp/incr1.txt" >"$tmp/got1.txt"
diff -u "$tmp/cold1.txt" "$tmp/got1.txt" \
  || { echo "incremental_smoke: livc comment edit diverges from cold analysis" >&2; exit 1; }
d=$(dirty_of "$tmp/incr1.txt")
[ "$d" = 0 ] \
  || { echo "incremental_smoke: comment edit reported $d dirty (rekey expected 0)" >&2; exit 1; }
echo "incremental_smoke: livc comment edit — $(wc -l <"$tmp/got1.txt") statement sets identical, 0 dirty (rekey)"

# ---- 1b. kernel edit on livc with sub-tree sharing off ----------------
# Persisted summaries answer even without §6 sharing, the one mode where
# no live memo entry does: the replayed tables must still match a cold
# run under the same flag.
cp benchmarks/livc.c "$tmp/livc_ns.c"
"$ptan" analyze "$tmp/livc_ns.c" --no-share-contexts --incremental --cache-dir "$cache" >/dev/null
sed 's/double kern_a_5(void) { int i;/double kern_a_5(void) { int i; int edit_probe; edit_probe = 0;/' \
  "$tmp/livc_ns.c" >"$tmp/livc_ns2.c" && mv "$tmp/livc_ns2.c" "$tmp/livc_ns.c"
"$ptan" analyze "$tmp/livc_ns.c" --no-share-contexts --no-cache | grep '^s[0-9]' >"$tmp/cold1b.txt"
"$ptan" analyze "$tmp/livc_ns.c" --no-share-contexts --incremental --cache-dir "$cache" --stats \
  >"$tmp/incr1b.txt"
grep '^s[0-9]' "$tmp/incr1b.txt" >"$tmp/got1b.txt"
diff -u "$tmp/cold1b.txt" "$tmp/got1b.txt" \
  || { echo "incremental_smoke: livc kernel edit without sharing diverges from cold analysis" >&2; exit 1; }
grep -q 'functions dirty, [1-9][0-9]* summaries replayed' "$tmp/incr1b.txt" \
  || { echo "incremental_smoke: livc kernel edit without sharing replayed no summaries" >&2; exit 1; }
echo "incremental_smoke: livc kernel edit, no sharing — $(wc -l <"$tmp/got1b.txt") statement sets identical, $(sed -n 's/^incremental:[[:space:]]*//p' "$tmp/incr1b.txt")"

# ---- 2. one-function edit: the dirty cone is bounded ------------------
# Editing leaf_b must dirty exactly its caller cone {leaf_b, main};
# leaf_a and mid replay. And the tables must still match a cold run.
cat >"$tmp/cone.c" <<'EOF'
int g1;
int g2;
void leaf_a(int **pp) { *pp = &g1; }
void leaf_b(int **pp) { *pp = &g2; }
void mid(int **pp) { leaf_a(pp); }
int main() { int *p; mid(&p); leaf_b(&p); return 0; }
EOF
"$ptan" analyze "$tmp/cone.c" --incremental --cache-dir "$cache" >/dev/null
sed 's/{ \*pp = \&g2; }/{ *pp = \&g1; *pp = \&g2; }/' "$tmp/cone.c" >"$tmp/cone2.c" \
  && mv "$tmp/cone2.c" "$tmp/cone.c"
"$ptan" analyze "$tmp/cone.c" --no-cache | grep '^s[0-9]' >"$tmp/cold2.txt"
"$ptan" analyze "$tmp/cone.c" --incremental --cache-dir "$cache" --stats >"$tmp/incr2.txt"
grep '^s[0-9]' "$tmp/incr2.txt" >"$tmp/got2.txt"
diff -u "$tmp/cold2.txt" "$tmp/got2.txt" \
  || { echo "incremental_smoke: cone edit diverges from cold analysis" >&2; exit 1; }
d=$(dirty_of "$tmp/incr2.txt")
[ "$d" = 2 ] \
  || { echo "incremental_smoke: cone edit reported $d dirty (expected 2: leaf_b + main)" >&2; exit 1; }
grep -q 'functions dirty, [1-9][0-9]* summaries replayed' "$tmp/incr2.txt" \
  || { echo "incremental_smoke: cone edit replayed no summaries" >&2; exit 1; }
echo "incremental_smoke: cone edit — sets identical, 2 dirty, clean subtrees replayed"

# ---- 3. the bench section ---------------------------------------------
# The bench gates internally: every row bit-identical, and the suite
# incremental total beating the non-incremental cache trajectory. A
# non-zero exit fails the job.
"$bench" incremental \
  || { echo "incremental_smoke: bench incremental section failed" >&2; exit 1; }

echo "incremental_smoke: OK"
