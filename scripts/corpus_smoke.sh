#!/bin/sh
# Corpus smoke: check the deterministic generator end-to-end through the
# real `ptan gen` binary — byte-identical output per seed (twice, and
# against --out), the overwrite refusal (exit 2 without --force), knob
# validation exit codes, and a generated 10k+-line program flowing
# through `ptan tables` — then run the bench's corpus section, whose
# own gates enforce regeneration byte-identity, the 10k-line floor,
# demand seed-row identity, degraded-run pair supersets, degraded runs
# at 10k lines costing no more than precise ones, and
# exhaustive-vs-parallel bit-identity over the whole corpus. Run from
# the repository root after `dune build`; CI runs this as the
# corpus-smoke job. See docs/CORPUS.md.
set -eu

ptan="${PTAN:-_build/default/bin/ptan.exe}"
bench="${PTAN_BENCH:-_build/default/bench/main.exe}"
[ -x "$ptan" ] || { echo "corpus_smoke: $ptan not found (dune build first)" >&2; exit 1; }
[ -x "$bench" ] || { echo "corpus_smoke: $bench not found (dune build first)" >&2; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# ---- 1. seed reproducibility through the CLI --------------------------
# Same seed, three renderings (stdout twice, --out once): one digest.
"$ptan" gen --seed 11 --size 1000 --depth 4 --fnptr-density 30 >"$tmp/a.c"
"$ptan" gen --seed 11 --size 1000 --depth 4 --fnptr-density 30 >"$tmp/b.c"
"$ptan" gen --seed 11 --size 1000 --depth 4 --fnptr-density 30 --out "$tmp/c.c"
cmp -s "$tmp/a.c" "$tmp/b.c" \
  || { echo "corpus_smoke: same seed, different bytes on stdout" >&2; exit 1; }
cmp -s "$tmp/a.c" "$tmp/c.c" \
  || { echo "corpus_smoke: --out differs from stdout for the same seed" >&2; exit 1; }
# A different seed must actually vary the program.
"$ptan" gen --seed 12 --size 1000 --depth 4 --fnptr-density 30 >"$tmp/d.c"
cmp -s "$tmp/a.c" "$tmp/d.c" \
  && { echo "corpus_smoke: different seeds produced identical programs" >&2; exit 1; }
echo "corpus_smoke: seed 11 byte-identical across three renderings; seed 12 differs"

# ---- 2. refusal and validation exit codes (docs/CLI.md: gen errors are 2)
set +e
"$ptan" gen --seed 12 --size 1000 --depth 4 --fnptr-density 30 --out "$tmp/c.c" \
  2>"$tmp/refuse.err"; st=$?
set -e
[ "$st" -eq 2 ] || { echo "corpus_smoke: overwrite refusal exited $st, want 2" >&2; exit 1; }
cmp -s "$tmp/a.c" "$tmp/c.c" \
  || { echo "corpus_smoke: refused overwrite still changed the file" >&2; exit 1; }
grep -q force "$tmp/refuse.err" \
  || { echo "corpus_smoke: refusal message does not mention --force" >&2; exit 1; }
"$ptan" gen --seed 12 --size 1000 --depth 4 --fnptr-density 30 --out "$tmp/c.c" --force
cmp -s "$tmp/c.c" "$tmp/d.c" \
  || { echo "corpus_smoke: --force did not write the new program" >&2; exit 1; }
for bad in "--size 10" "--depth 0" "--fnptr-density 150" "--seed=-1"; do
  set +e
  # shellcheck disable=SC2086
  "$ptan" gen $bad >/dev/null 2>&1; st=$?
  set -e
  [ "$st" -eq 2 ] \
    || { echo "corpus_smoke: 'gen $bad' exited $st, want 2" >&2; exit 1; }
done
echo "corpus_smoke: overwrite refusal and knob validation all exit 2"

# ---- 3. a 10k+-line program analyzes end-to-end -----------------------
# The acceptance-floor shape: deep direct-call DAG (cheaper than the
# fn-ptr web, so the smoke stays minutes not tens of minutes).
"$ptan" gen --seed 23 --size 10000 --depth 7 --fnptr-density 0 --structs 50 --out "$tmp/big.c"
lines=$(wc -l <"$tmp/big.c")
[ "$lines" -ge 10000 ] \
  || { echo "corpus_smoke: generated program has $lines lines, want >= 10000" >&2; exit 1; }
"$ptan" tables "$tmp/big.c" --no-cache >"$tmp/big.tables"
grep -q '^== ' "$tmp/big.tables" \
  || { echo "corpus_smoke: no tables emitted for the generated program" >&2; exit 1; }
echo "corpus_smoke: $lines-line generated program analyzed end-to-end"

# ---- 4. the bench section ---------------------------------------------
# The bench gates internally: per-member regeneration byte-identity and
# the 10k floor, demand seed rows bit-identical to exhaustive, fuel-1
# degraded runs pair supersets of the full run, tripped 10k-line
# members degrading no slower than the precise run, and the -j pool
# reproducing every sequential digest. A non-zero exit fails the job.
"$bench" corpus \
  || { echo "corpus_smoke: bench corpus section failed" >&2; exit 1; }

echo "corpus_smoke: OK"
