#!/bin/sh
# Demand smoke: check that `--demand` is invisible except for speed —
# every query flavor (pts / alias / calls, plus the error paths) must
# print byte-for-byte what the exhaustive engine prints, one-shot and
# in batch, on a function-pointer fixture and across the benchmark
# suite, and seeded from an incremental cache entry after an edit.
# Then run the bench's demand section, whose own gates enforce
# seed-row bit-identity on all 18 programs and demand beating
# exhaustive cold on at least 14 of them (that the planner trims some
# program to a proper sub-slice is checked by `dune runtest`, in
# test/test_demand.ml). Run from the repository root after `dune build`;
# CI runs this as the demand-smoke job. See docs/DEMAND.md.
set -eu

ptan="${PTAN:-_build/default/bin/ptan.exe}"
bench="${PTAN_BENCH:-_build/default/bench/main.exe}"
[ -x "$ptan" ] || { echo "demand_smoke: $ptan not found (dune build first)" >&2; exit 1; }
[ -x "$bench" ] || { echo "demand_smoke: $bench not found (dune build first)" >&2; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# One query, exhaustive vs --demand: stdout, stderr, and exit status
# must all agree. $1 is the file; the rest are the query words.
check_q() {
  f=$1
  shift
  set +e
  "$ptan" query "$f" --no-cache "$@" >"$tmp/exh.out" 2>"$tmp/exh.err"
  exh_st=$?
  "$ptan" query "$f" --no-cache --demand "$@" >"$tmp/dem.out" 2>"$tmp/dem.err"
  dem_st=$?
  set -e
  [ "$exh_st" = "$dem_st" ] \
    || { echo "demand_smoke: '$*' on $f: exit $exh_st exhaustive vs $dem_st demand" >&2; exit 1; }
  diff -u "$tmp/exh.out" "$tmp/dem.out" \
    || { echo "demand_smoke: '$*' on $f: stdout diverges under --demand" >&2; exit 1; }
  diff -u "$tmp/exh.err" "$tmp/dem.err" \
    || { echo "demand_smoke: '$*' on $f: stderr diverges under --demand" >&2; exit 1; }
}

# ---- 1. every query flavor on a function-pointer fixture --------------
# Indirect calls make the slice planner consult the Andersen oracle;
# the seeds (main, helper) have proper sub-slices, so skipped callees
# actually exercise the summary-replay / widened-transfer paths.
cat >"$tmp/fp.c" <<'EOF'
int ga;
int gb;
void set_a(int **pp) { *pp = &ga; }
void set_b(int **pp) { *pp = &gb; }
void helper(int **pp, void (*f)(int **)) { f(pp); }
int main() {
  int *p;
  int *q;
  void (*fp)(int **) = set_a;
  helper(&p, fp);
  helper(&q, set_b);
  return 0;
}
EOF
check_q "$tmp/fp.c" pts main s8 p
check_q "$tmp/fp.c" pts helper s3 f
check_q "$tmp/fp.c" alias main s9 p q
check_q "$tmp/fp.c" calls 3
check_q "$tmp/fp.c" pts main s8 no_such_var
check_q "$tmp/fp.c" pts no_such_fn s8 p
echo "demand_smoke: fixture — pts/alias/calls and both error paths identical under --demand"

# ---- 2. batch mode: one slice per distinct seed -----------------------
# The batch path primes each seed's result once and answers the rest
# from the memo; output order and text must still match exactly.
cat >"$tmp/queries.txt" <<'EOF'
pts main s8 p
pts main s9 q
pts helper s3 f
alias main s9 p q
calls 3
pts main s8 no_such_var
EOF
"$ptan" batch "$tmp/fp.c" "$tmp/queries.txt" --no-cache >"$tmp/batch_exh.txt" 2>&1 || true
"$ptan" batch "$tmp/fp.c" "$tmp/queries.txt" --no-cache --demand >"$tmp/batch_dem.txt" 2>&1 || true
diff -u "$tmp/batch_exh.txt" "$tmp/batch_dem.txt" \
  || { echo "demand_smoke: batch output diverges under --demand" >&2; exit 1; }
echo "demand_smoke: batch — $(wc -l <"$tmp/batch_dem.txt") replies identical under --demand"

# ---- 3. suite sweep: every benchmark, mixed valid/invalid queries -----
# Seeds differ per program (wherever s3 lands), so this walks many
# different slices, including programs with no indirect sites at all
# (the planner then skips the Andersen pre-pass entirely).
for f in benchmarks/*.c; do
  check_q "$f" calls 3
  check_q "$f" pts main 1 no_such_var
done
echo "demand_smoke: benchmark sweep — all replies identical under --demand"

# ---- 4. seeded demand: replay from an incremental cache entry ---------
# Prime an incremental entry, then edit main only: the other functions'
# summaries stay valid, and demand queries outside main replay them at
# skipped calls (Engine's seeded skip path). Answers must still match a
# cold exhaustive query byte for byte.
cp benchmarks/stanford.c "$tmp/st.c"
"$ptan" analyze "$tmp/st.c" --incremental --cache-dir "$tmp/cache" >/dev/null
sed 's|^    /\* Perm \*/$|    /* Perm */\
    pctr = 1;|' benchmarks/stanford.c >"$tmp/st.c"
grep -q '^    pctr = 1;$' "$tmp/st.c" \
  || { echo "demand_smoke: stanford edit did not apply" >&2; exit 1; }
for q in "pts swap_elems s2 a" "alias swap_elems s2 a b" "pts quicksort s77 a" \
  "pts tree_insert s89 t" "pts tree_check s116 t"; do
  # shellcheck disable=SC2086 # $q is the query's words
  "$ptan" query "$tmp/st.c" --no-cache $q >"$tmp/exh.out" 2>&1 \
    || { echo "demand_smoke: '$q' failed exhaustively" >&2; exit 1; }
  # shellcheck disable=SC2086
  "$ptan" query "$tmp/st.c" --demand --incremental --cache-dir "$tmp/cache" $q \
    >"$tmp/dem.out" 2>&1 \
    || { echo "demand_smoke: '$q' failed under seeded --demand" >&2; exit 1; }
  diff -u "$tmp/exh.out" "$tmp/dem.out" \
    || { echo "demand_smoke: '$q' diverges under seeded --demand" >&2; exit 1; }
done
# the same queries through the daemon, whose --stats prove the skips
# actually replayed seeded summaries instead of widening
printf 'q %s pts swap_elems s2 a\nq %s pts tree_check s116 t\nquit\n' "$tmp/st.c" "$tmp/st.c" \
  | "$ptan" serve "$tmp/st.c" --demand --incremental --cache-dir "$tmp/cache" --stats \
    >/dev/null 2>"$tmp/serve.err"
grep -q '^demand: .* [1-9][0-9]* replayed' "$tmp/serve.err" \
  || { echo "demand_smoke: seeded --demand replayed no summary" >&2; cat "$tmp/serve.err" >&2; exit 1; }
echo "demand_smoke: seeded --demand after an edit of main — replies identical, summaries replayed"

# ---- 5. the bench section ---------------------------------------------
# The bench gates internally: seed rows bit-identical on every program,
# and demand beating exhaustive cold on >= 14/18. A non-zero exit fails
# the job.
"$bench" demand \
  || { echo "demand_smoke: bench demand section failed" >&2; exit 1; }

echo "demand_smoke: OK"
