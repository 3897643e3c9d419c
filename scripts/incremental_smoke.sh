#!/bin/sh
# Incremental smoke: exercise `ptan --incremental` end to end on real
# driver output — populate the stable cache entry, edit the source, and
# demand (a) the re-analysis prints per-statement sets bit-identical to
# a cold run of the edited file and (b) the dirty counter matches the
# edit: 0 for a comment-only edit (the rekey fast path, whose rewritten
# entry must equal the primed one past its content key and be a hit
# next time; also checked mid-file under --heap-by-site), a small
# bounded cone for a
# one-function edit. A livc kernel edit and a generated web-600 edit
# are also checked with --no-share-contexts, where summaries do not
# replay at all: replay is the §6 memo carried across runs. A
# generated deep call chain and a generated program with recursion
# each take two successive edits, with sharing on and off, and a
# generated web-3000 program, whose functions call through tables,
# takes two edits that must leave fewer functions dirty than when no
# function with an indirect call site replayed. A counter edit of a
# deep-800 leaf must let some function adopt its saved rows. Then run the
# bench's incremental section, whose own gates enforce suite-wide
# bit-identity and incremental beating a full miss of the plain cache
# (its `cold` column). A last leg checks the plain (default) cache: a
# comment edit rekeys, and edits leave one entry per source; and the
# readers of the invocation graph, `ptan ig` and `ptan constants`,
# print from a warm entry and after a replaying edit of config.c what
# they print with --no-cache. Run from the repository root after
# `dune build`; CI runs this as the incremental-smoke job. See
# docs/INCREMENTAL.md.
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

# The summaries-replayed count of the same line.
replayed_of() { # replayed_of FILE
  sed -n 's/^incremental:.* dirty, \([0-9][0-9]*\) summaries replayed.*/\1/p' "$1"
}

# The functions-adopted count of the same line.
adopted_of() { # adopted_of FILE
  sed -n 's/^incremental:.* rebuilt, \([0-9][0-9]*\) functions adopted.*/\1/p' "$1"
}

# Whether entries A and B agree past their content keys: magic (5
# bytes), version (1 byte), key (16 bytes), then the index and the
# sections (lib/core/persist.ml). A rekey rewrites the key only.
same_past_key() { # same_past_key A B
  tail -c +23 "$1" >"$tmp/a.past"
  tail -c +23 "$2" >"$tmp/b.past"
  cmp -s "$tmp/a.past" "$tmp/b.past"
}

# ---- 1. comment edit on livc: the rekey fast path ---------------------
# An IR-preserving edit must serve the old entry as a hit (0 dirty) and
# still print exactly what a cold analysis of the edited file prints.
# The edit leaves the lowered program as it was, so the rekey saves the
# entry under the new content key and every later byte as it was. The
# rewritten entry must then be a full hit.
cp benchmarks/livc.c "$tmp/livc.c"
"$ptan" analyze "$tmp/livc.c" --incremental --cache-dir "$cache" >/dev/null
entry=$(ls "$cache"/livc-*.pti)
cp "$entry" "$tmp/livc-primed.pti"
printf '\n/* incremental_smoke: comment-only edit */\n' >>"$tmp/livc.c"
"$ptan" analyze "$tmp/livc.c" --no-cache | grep '^s[0-9]' >"$tmp/cold1.txt"
"$ptan" analyze "$tmp/livc.c" --incremental --cache-dir "$cache" --stats >"$tmp/incr1.txt"
grep '^s[0-9]' "$tmp/incr1.txt" >"$tmp/got1.txt"
diff -u "$tmp/cold1.txt" "$tmp/got1.txt" \
  || { echo "incremental_smoke: livc comment edit diverges from cold analysis" >&2; exit 1; }
d=$(dirty_of "$tmp/incr1.txt")
[ "$d" = 0 ] \
  || { echo "incremental_smoke: comment edit reported $d dirty (rekey expected 0)" >&2; exit 1; }
same_past_key "$tmp/livc-primed.pti" "$entry" \
  || { echo "incremental_smoke: the rekeyed livc entry differs from the primed one past its key" >&2; exit 1; }
"$ptan" analyze "$tmp/livc.c" --incremental --cache-dir "$cache" --stats >"$tmp/incr1n.txt"
grep -q '^result cache: *1 hits' "$tmp/incr1n.txt" \
  || { echo "incremental_smoke: the rekeyed livc entry is not a hit" >&2; exit 1; }
echo "incremental_smoke: livc comment edit — $(wc -l <"$tmp/got1.txt") statement sets identical, 0 dirty (rekey, entry as primed past its key, then a hit)"

# ---- 1a. mid-file comment edit under --heap-by-site -----------------
# A comment before a function shifts the source position of every later
# statement but no statement id, so the program's fingerprint holds and
# the entry rekeys in every engine mode — here with heap objects named
# by their allocation statement. livc allocates nothing; in sim the
# allocating functions follow the comment, so its heap@N rows are the
# ids that must not go stale.
for case in "livc:double kern_a_5" "sim:int max3"; do
  b=${case%%:*} anchor=${case#*:}
  cp "benchmarks/$b.c" "$tmp/${b}_site.c"
  "$ptan" analyze "$tmp/${b}_site.c" --heap-by-site --incremental --cache-dir "$cache" >/dev/null
  awk -v a="$anchor" 'index($0, a) == 1 { print "/* incremental_smoke: mid-file comment */" } { print }' \
    "benchmarks/$b.c" >"$tmp/${b}_site.c"
  "$ptan" analyze "$tmp/${b}_site.c" --heap-by-site --no-cache | grep '^s[0-9]' >"$tmp/cold1a.txt"
  "$ptan" analyze "$tmp/${b}_site.c" --heap-by-site --incremental --cache-dir "$cache" --stats \
    >"$tmp/incr1a.txt"
  grep '^s[0-9]' "$tmp/incr1a.txt" >"$tmp/got1a.txt"
  diff -u "$tmp/cold1a.txt" "$tmp/got1a.txt" \
    || { echo "incremental_smoke: $b mid-file comment edit (heap by site) diverges from cold analysis" >&2; exit 1; }
  d=$(dirty_of "$tmp/incr1a.txt")
  [ "$d" = 0 ] \
    || { echo "incremental_smoke: $b mid-file comment edit (heap by site) reported $d dirty (rekey expected 0)" >&2; exit 1; }
  echo "incremental_smoke: $b mid-file comment edit, heap by site — $(wc -l <"$tmp/got1a.txt") statement sets identical, $(grep -c 'heap@' "$tmp/got1a.txt") with site names, 0 dirty (rekey)"
done
[ "$(grep -c 'heap@' "$tmp/got1a.txt")" -gt 0 ] \
  || { echo "incremental_smoke: sim under --heap-by-site shows no heap@ site" >&2; exit 1; }

# ---- 1b. kernel edit on livc with sub-tree sharing off ----------------
# Without §6 sharing no summary replays: a replay grows the subtree a
# cold evaluation grows under sharing only. The edited text re-runs in
# full and must match a cold run under the same flag.
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
[ "$(replayed_of "$tmp/incr1b.txt")" = 0 ] \
  || { echo "incremental_smoke: livc kernel edit without sharing replayed summaries" >&2; exit 1; }
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

# ---- 2b. generated programs: two successive edits ---------------------
# A frame holds its own function's rows and its calls, each naming the
# callee's entry, so the second re-analysis replays entries the first
# one only replayed or reached through calls, and saved again. Both
# must print what a cold run prints, with sharing on and off; without
# sharing nothing replays. deep-800 is a long call chain; knot-1000 has
# recursion and function pointers, where an output can stay bottom and
# a frame whose call names it is not stored.
# Put LINE before the first statement of the generated function FN.
edit_top() { # edit_top FILE FN LINE
  awk -v fn="$2" -v line="$3" '
    $0 == "int " fn "(int n, int *p) {" { inside = 1 }
    inside && $0 == "    r = n;" { print line; inside = 0 }
    { print }' "$1" >"$1.tmp" && mv "$1.tmp" "$1"
}
# Generate NAME with GEN-FLAGS, then edit FN1 (gp0 = &gv1;) and FN2
# (gp0 = &gv2;) in turn.
two_edits() { # two_edits NAME FN1 FN2 GEN-FLAGS...
  name=$1 fn1=$2 fn2=$3
  shift 3
  "$ptan" gen "$@" --out "$tmp/$name.c" >/dev/null
  for flags in "" "--no-share-contexts"; do
    src="$tmp/${name}_e.c"
    gcache="$tmp/${name}_cache$flags"
    cp "$tmp/$name.c" "$src"
    # shellcheck disable=SC2086 # $flags is empty or one flag
    "$ptan" analyze "$src" $flags --incremental --cache-dir "$gcache" >/dev/null
    for step in "$fn1 1" "$fn2 2"; do
      # shellcheck disable=SC2086 # the function to edit, then the gv index
      set -- $step
      edit_top "$src" "$1" "    gp0 = &gv$2;"
      # shellcheck disable=SC2086
      "$ptan" analyze "$src" $flags --no-cache | grep '^s[0-9]' >"$tmp/cold_gen.txt"
      # shellcheck disable=SC2086
      "$ptan" analyze "$src" $flags --incremental --cache-dir "$gcache" --stats >"$tmp/incr_gen.txt"
      grep '^s[0-9]' "$tmp/incr_gen.txt" >"$tmp/got_gen.txt"
      diff -u "$tmp/cold_gen.txt" "$tmp/got_gen.txt" \
        || { echo "incremental_smoke: $name edit of $1 ${flags:-(sharing)} diverges from cold analysis" >&2; exit 1; }
      r=$(replayed_of "$tmp/incr_gen.txt")
      if [ -n "$flags" ]; then
        [ "$r" = 0 ] \
          || { echo "incremental_smoke: $name edit of $1 $flags replayed $r summaries" >&2; exit 1; }
      else
        [ "$r" -gt 0 ] \
          || { echo "incremental_smoke: $name edit of $1 (sharing) replayed no summaries" >&2; exit 1; }
      fi
      echo "incremental_smoke: $name edit of $1 ${flags:-(sharing)} — $(wc -l <"$tmp/got_gen.txt") statement sets identical, $(sed -n 's/^incremental:[[:space:]]*//p' "$tmp/incr_gen.txt")"
    done
  done
}
two_edits deep-800 f3_1 f4_0 --seed 23 --size 800 --depth 7 --fnptr-density 0 --structs 50
two_edits knot-1000 f1_0 f3_0 --seed 37 --size 1000 --depth 4 --fnptr-density 15 --recursion 30

# ---- 2b'. web-600 without sharing ---------------------------------------
# A pointer edit of f0_3 in web-600, whose functions call through
# tables: a seed replayed at every use without sharing makes this edit
# differ from a cold run at s36, so it must replay nothing.
web6="$tmp/web-600.c"
"$ptan" gen --seed 11 --size 600 --depth 4 --fnptr-density 30 --out "$web6" >/dev/null
"$ptan" analyze "$web6" --no-share-contexts --incremental --cache-dir "$tmp/web6_cache" >/dev/null
edit_top "$web6" f0_3 "    gp0 = &gv1;"
"$ptan" analyze "$web6" --no-share-contexts --no-cache | grep '^s[0-9]' >"$tmp/cold_web6.txt"
"$ptan" analyze "$web6" --no-share-contexts --incremental --cache-dir "$tmp/web6_cache" --stats \
  >"$tmp/incr_web6.txt"
grep '^s[0-9]' "$tmp/incr_web6.txt" >"$tmp/got_web6.txt"
diff -u "$tmp/cold_web6.txt" "$tmp/got_web6.txt" \
  || { echo "incremental_smoke: web-600 edit of f0_3 without sharing diverges from cold analysis" >&2; exit 1; }
[ "$(replayed_of "$tmp/incr_web6.txt")" = 0 ] \
  || { echo "incremental_smoke: web-600 edit of f0_3 without sharing replayed summaries" >&2; exit 1; }
echo "incremental_smoke: web-600 edit of f0_3, no sharing — $(wc -l <"$tmp/got_web6.txt") statement sets identical, $(sed -n 's/^incremental:[[:space:]]*//p' "$tmp/incr_web6.txt")"

# ---- 2c. web-3000: replay through function pointers -------------------
# A summary names the callee entry of each call it made, indirect ones
# included, so a function that calls through a table replays and grows
# its graph children from the record. Two chained edits of web-3000, a
# pointer edit of the mid-layer f3_1 and a counter edit of the leaf
# f0_4, must each print what a cold run prints and leave fewer functions
# dirty than the 65 (of 136) that stayed dirty while every function with
# an indirect call site, and each of its callers, re-ran. This counts
# functions; it does not gate on wall-clock time.
web="$tmp/web-3000.c"
"$ptan" gen --seed 11 --size 3000 --depth 4 --fnptr-density 30 --out "$web" >/dev/null
"$ptan" analyze "$web" --incremental --cache-dir "$tmp/web_cache" >/dev/null
for step in "f3_1:    gp0 = &gv1;" "f0_4:    gv0 = gv0 + 1;"; do
  fn=${step%%:*} line=${step#*:}
  edit_top "$web" "$fn" "$line"
  "$ptan" analyze "$web" --no-cache | grep '^s[0-9]' >"$tmp/cold_web.txt"
  "$ptan" analyze "$web" --incremental --cache-dir "$tmp/web_cache" --stats >"$tmp/incr_web.txt"
  grep '^s[0-9]' "$tmp/incr_web.txt" >"$tmp/got_web.txt"
  diff -u "$tmp/cold_web.txt" "$tmp/got_web.txt" \
    || { echo "incremental_smoke: web-3000 edit of $fn diverges from cold analysis" >&2; exit 1; }
  d=$(dirty_of "$tmp/incr_web.txt")
  [ "$d" -lt 65 ] \
    || { echo "incremental_smoke: web-3000 edit of $fn left $d functions dirty (expected fewer than 65)" >&2; exit 1; }
  echo "incremental_smoke: web-3000 edit of $fn — $(wc -l <"$tmp/got_web.txt") statement sets identical, $(sed -n 's/^incremental:[[:space:]]*//p' "$tmp/incr_web.txt")"
done

# ---- 2d. a leaf edit of deep-800: replayed functions adopt their rows -
# A counter edit of the leaf f0_3 sends no new pointer down the chain:
# the functions that only replay keep the summaries that made their
# saved rows, so some of them must take those rows from the entry, and
# the output must still be what a cold run prints.
deep="$tmp/deep-leaf.c"
"$ptan" gen --seed 23 --size 800 --depth 7 --fnptr-density 0 --structs 50 --out "$deep" >/dev/null
"$ptan" analyze "$deep" --incremental --cache-dir "$tmp/deep_cache" >/dev/null
edit_top "$deep" f0_3 "    gv0 = gv0 + 1;"
"$ptan" analyze "$deep" --no-cache | grep '^s[0-9]' >"$tmp/cold_deep.txt"
"$ptan" analyze "$deep" --incremental --cache-dir "$tmp/deep_cache" --stats >"$tmp/incr_deep.txt"
grep '^s[0-9]' "$tmp/incr_deep.txt" >"$tmp/got_deep.txt"
diff -u "$tmp/cold_deep.txt" "$tmp/got_deep.txt" \
  || { echo "incremental_smoke: deep-800 leaf edit of f0_3 diverges from cold analysis" >&2; exit 1; }
a=$(adopted_of "$tmp/incr_deep.txt")
[ "$a" -gt 0 ] \
  || { echo "incremental_smoke: deep-800 leaf edit of f0_3 adopted no saved rows" >&2; exit 1; }
echo "incremental_smoke: deep-800 leaf edit of f0_3 — $(wc -l <"$tmp/got_deep.txt") statement sets identical, $(sed -n 's/^incremental:[[:space:]]*//p' "$tmp/incr_deep.txt")"

# ---- 2e. the plain cache: rekey and one entry per source --------------
# Without --incremental the entry is named like the incremental one, so
# a comment edit rekeys it (a hit printing what a cold run prints, the
# entry as primed past its key) and every edit overwrites it: one .ptc
# per source remains.
pcache="$tmp/plain_cache"
cp benchmarks/livc.c "$tmp/livc.c"
"$ptan" analyze "$tmp/livc.c" --cache-dir "$pcache" >/dev/null
pentry=$(ls "$pcache"/livc-*.ptc)
cp "$pentry" "$tmp/livc-primed.ptc"
awk 'index($0, "double kern_a_5") == 1 { print "/* incremental_smoke: plain comment */" } { print }' \
  benchmarks/livc.c >"$tmp/livc.c"
"$ptan" analyze "$tmp/livc.c" --no-cache | grep '^s[0-9]' >"$tmp/cold_plain.txt"
"$ptan" analyze "$tmp/livc.c" --cache-dir "$pcache" --stats >"$tmp/plain.txt"
grep '^s[0-9]' "$tmp/plain.txt" >"$tmp/got_plain.txt"
diff -u "$tmp/cold_plain.txt" "$tmp/got_plain.txt" \
  || { echo "incremental_smoke: livc plain comment edit diverges from cold analysis" >&2; exit 1; }
grep -q '^result cache: *1 hits' "$tmp/plain.txt" \
  || { echo "incremental_smoke: livc plain comment edit is not a hit" >&2; exit 1; }
same_past_key "$tmp/livc-primed.ptc" "$pentry" \
  || { echo "incremental_smoke: the rekeyed plain livc entry differs from the primed one past its key" >&2; exit 1; }
sed 's/double kern_a_5(void) { int i;/double kern_a_5(void) { int i; int edit_probe; edit_probe = 0;/' \
  "$tmp/livc.c" >"$tmp/livc2.c" && mv "$tmp/livc2.c" "$tmp/livc.c"
"$ptan" analyze "$tmp/livc.c" --cache-dir "$pcache" >/dev/null
n=$(ls "$pcache"/livc-*.ptc | wc -l)
[ "$n" = 1 ] \
  || { echo "incremental_smoke: livc edits left $n plain entries (expected 1)" >&2; exit 1; }
echo "incremental_smoke: livc plain cache — comment edit rekeyed ($(wc -l <"$tmp/got_plain.txt") statement sets identical, a hit, entry as primed past its key), one .ptc after a real edit"

# ---- 2f. the graph's readers: a warm entry and a replaying edit ------
# An entry holds the invocation graph's shape and map information, not
# its nodes' IN/OUT pairs. `ptan ig` prints the graph and `ptan
# constants` reads its map information at every call: both must print
# from a warm entry what --no-cache prints, and so after an edit atop
# config.c's check_ptr, which replays its callers' summaries, whose
# calls give the nodes the replay grows their map information.
cp benchmarks/config.c "$tmp/config.c"
for sub in ig constants; do
  "$ptan" "$sub" "$tmp/config.c" --no-cache >"$tmp/cold_$sub.txt"
  "$ptan" "$sub" "$tmp/config.c" --cache-dir "$tmp/warm_$sub" >/dev/null
  ls "$tmp/warm_$sub"/config-*.ptc >/dev/null \
    || { echo "incremental_smoke: ptan $sub wrote no entry" >&2; exit 1; }
  "$ptan" "$sub" "$tmp/config.c" --cache-dir "$tmp/warm_$sub" >"$tmp/warm_$sub.txt"
  diff -u "$tmp/cold_$sub.txt" "$tmp/warm_$sub.txt" \
    || { echo "incremental_smoke: warm ptan $sub on config.c differs from --no-cache" >&2; exit 1; }
  "$ptan" "$sub" "$tmp/config.c" --incremental --cache-dir "$tmp/incr_$sub" >/dev/null
done
"$ptan" analyze "$tmp/config.c" --incremental --cache-dir "$tmp/incr_config" >/dev/null
sed 's/^int check_ptr(int \*p, int \*q) {$/& int bench_probe_x; bench_probe_x = 0;/' \
  benchmarks/config.c >"$tmp/config.c"
grep -q 'bench_probe_x' "$tmp/config.c" \
  || { echo "incremental_smoke: the config.c edit did not apply" >&2; exit 1; }
"$ptan" analyze "$tmp/config.c" --incremental --cache-dir "$tmp/incr_config" --stats \
  >"$tmp/incr_config.txt"
r=$(replayed_of "$tmp/incr_config.txt")
[ "$r" -gt 0 ] \
  || { echo "incremental_smoke: the config.c edit of check_ptr replayed nothing" >&2; exit 1; }
for sub in ig constants; do
  "$ptan" "$sub" "$tmp/config.c" --no-cache >"$tmp/cold_$sub.txt"
  "$ptan" "$sub" "$tmp/config.c" --incremental --cache-dir "$tmp/incr_$sub" >"$tmp/edit_$sub.txt"
  diff -u "$tmp/cold_$sub.txt" "$tmp/edit_$sub.txt" \
    || { echo "incremental_smoke: ptan $sub --incremental after the config.c edit differs from --no-cache" >&2; exit 1; }
done
echo "incremental_smoke: config.c graph readers — warm ig and constants as --no-cache; after the check_ptr edit ($r summaries replayed) as --no-cache"

# ---- 3. the bench section ---------------------------------------------
# The bench gates internally: every row bit-identical, and the suite
# incremental total beating the `cold` column's, a full miss of the plain
# cache with no entry at all. A non-zero exit fails the job.
"$bench" incremental \
  || { echo "incremental_smoke: bench incremental section failed" >&2; exit 1; }

echo "incremental_smoke: OK"
