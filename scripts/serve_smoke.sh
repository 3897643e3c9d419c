#!/bin/sh
# Serve smoke: boot `ptan serve` on the full benchmark suite, check a
# batch of protocol replies byte-for-byte against cold `ptan query`
# output, enforce a lenient throughput floor, and exercise the SIGTERM
# shutdown path. Run from the repository root after `dune build`; CI
# runs this as the serve-smoke job. See docs/SERVE.md.
set -eu

ptan="${PTAN:-_build/default/bin/ptan.exe}"
[ -x "$ptan" ] || { echo "serve_smoke: $ptan not found (dune build first)" >&2; exit 1; }

tmp=$(mktemp -d)
cache="$tmp/cache"
cleanup() {
  [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# Poll for a pattern in a file the daemon is still writing.
wait_for() {
  i=0
  while ! grep -q "$1" "$2" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "serve_smoke: timed out waiting for '$1' in $2" >&2; exit 1; }
    sleep 0.1
  done
}

# ---- 1. bit-identity: cold `ptan query` is the oracle -----------------
# For every benchmark, ask one query of each flavor through the daemon
# and demand the reply match what a cold `ptan query` prints: exit 0 +
# stdout maps to `ok <answer>`, exit 2 + `error: <e>` maps to
# `error <e>`. The queries deliberately mix valid and invalid ones so
# both reply paths are covered.

expect_for() { # expect_for FILE QUERY... >> expected.txt
  file=$1
  shift
  if out=$("$ptan" query "$file" --cache-dir "$cache" "$@" 2>"$tmp/qerr"); then
    printf 'ok %s\n' "$out"
  else
    st=$?
    [ "$st" -eq 2 ] || { echo "serve_smoke: cold query '$*' on $file exited $st" >&2; exit 1; }
    printf 'error %s\n' "$(sed 's/^error: //' "$tmp/qerr")"
  fi
}

: >"$tmp/requests.txt"
: >"$tmp/expected.txt"
for f in benchmarks/*.c; do
  printf 'q %s calls 3\n' "$f" >>"$tmp/requests.txt"
  expect_for "$f" calls 3 >>"$tmp/expected.txt"
  printf 'q %s pts main 1 no_such_var\n' "$f" >>"$tmp/requests.txt"
  expect_for "$f" pts main 1 no_such_var >>"$tmp/expected.txt"
done
# A known-good query through the stem alias, and a clean quit.
printf 'q hash pts lookup s3 e\n' >>"$tmp/requests.txt"
expect_for benchmarks/hash.c pts lookup s3 e >>"$tmp/expected.txt"
printf 'quit\n' >>"$tmp/requests.txt"
printf 'ok bye\n' >>"$tmp/expected.txt"

grep -q '^ok ' "$tmp/expected.txt" \
  || { echo "serve_smoke: no query reached the ok path; oracle is vacuous" >&2; exit 1; }

"$ptan" serve benchmarks/*.c --cache-dir "$cache" \
  <"$tmp/requests.txt" >"$tmp/got.txt" 2>"$tmp/serve1.err"
diff -u "$tmp/expected.txt" "$tmp/got.txt" \
  || { echo "serve_smoke: daemon replies diverge from cold ptan query" >&2; exit 1; }
grep -q '^serve: ready, 18 file(s) resident, stdio$' "$tmp/serve1.err" \
  || { echo "serve_smoke: missing/unexpected ready line" >&2; cat "$tmp/serve1.err" >&2; exit 1; }
echo "serve_smoke: $(wc -l <"$tmp/got.txt") replies bit-identical to cold ptan query"

# ---- 2. throughput floor ----------------------------------------------
# One warm-cache corpus entry, many copies of one known query. The floor
# is deliberately lenient (the bench Serve section enforces the real
# >=100k q/s target in-process); this catches order-of-magnitude
# regressions end to end, shell and pipes included.
n=20000
hash_expected=$(expect_for benchmarks/hash.c pts lookup s3 e)
awk -v n="$n" 'BEGIN { for (i = 0; i < n; i++) print "q hash pts lookup s3 e" }' \
  >"$tmp/load.txt"
start=$(date +%s%N)
"$ptan" serve benchmarks/hash.c --cache-dir "$cache" -j 2 --queue-max 65536 \
  <"$tmp/load.txt" >"$tmp/got2.txt" 2>"$tmp/serve2.err"
wall_ms=$(( ($(date +%s%N) - start) / 1000000 ))
[ "$wall_ms" -gt 0 ] || wall_ms=1
qps=$(( n * 1000 / wall_ms ))
[ "$(wc -l <"$tmp/got2.txt")" -eq "$n" ] \
  || { echo "serve_smoke: expected $n replies, got $(wc -l <"$tmp/got2.txt")" >&2; exit 1; }
[ "$(sort -u "$tmp/got2.txt")" = "$hash_expected" ] \
  || { echo "serve_smoke: throughput replies not uniformly '$hash_expected'" >&2; exit 1; }
echo "serve_smoke: $n queries in ${wall_ms} ms = ${qps} queries/s (floor 5000)"
[ "$qps" -ge 5000 ] \
  || { echo "serve_smoke: throughput below floor" >&2; exit 1; }

# ---- 3. SIGTERM is a clean shutdown -----------------------------------
# Hold the daemon's stdin open on a FIFO so EOF cannot end it, confirm
# it serves, then SIGTERM it and demand a zero exit and the shutdown
# summary.
mkfifo "$tmp/in"
"$ptan" serve benchmarks/hash.c --cache-dir "$cache" \
  <"$tmp/in" >"$tmp/got3.txt" 2>"$tmp/serve3.err" &
daemon_pid=$!
exec 3>"$tmp/in"
wait_for '^serve: ready' "$tmp/serve3.err"
printf 'ping\n' >&3
wait_for '^ok pong$' "$tmp/got3.txt"
kill -TERM "$daemon_pid"
if wait "$daemon_pid"; then st=0; else st=$?; fi
daemon_pid=
exec 3>&-
[ "$st" -eq 0 ] \
  || { echo "serve_smoke: SIGTERM exit status $st" >&2; cat "$tmp/serve3.err" >&2; exit 1; }
grep -q '^serve: shutdown after 1 request(s): 1 ok,' "$tmp/serve3.err" \
  || { echo "serve_smoke: missing shutdown summary" >&2; cat "$tmp/serve3.err" >&2; exit 1; }
echo "serve_smoke: SIGTERM shutdown clean (exit 0, summary printed)"

# ---- 4. --stats survives a reload --------------------------------------
# Six requests with a reload (a cache hit: the entry is warm from
# section 1) in the middle. The shutdown line must count all six, and
# the engine counters printed at shutdown are those of the resident
# result, so its body passes match a cold `ptan analyze`.
printf 'q hash pts lookup s3 e\nping\nreload hash\nq hash pts lookup s3 e\nstats\nping\n' \
  >"$tmp/reload.txt"
"$ptan" serve benchmarks/hash.c --cache-dir "$cache" --stats \
  <"$tmp/reload.txt" >"$tmp/got4.txt" 2>"$tmp/serve4.err"
grep -q '^serve: shutdown after 6 request(s): 6 ok,' "$tmp/serve4.err" \
  || { echo "serve_smoke: shutdown line does not count 6 requests" >&2; cat "$tmp/serve4.err" >&2; exit 1; }
cold_bodies=$("$ptan" analyze --no-cache --stats benchmarks/hash.c | grep '^body passes:')
[ -n "$cold_bodies" ] || { echo "serve_smoke: no body passes line from ptan analyze" >&2; exit 1; }
[ "$(grep '^body passes:' "$tmp/serve4.err")" = "$cold_bodies" ] \
  || { echo "serve_smoke: serve --stats body passes differ from '$cold_bodies'" >&2; cat "$tmp/serve4.err" >&2; exit 1; }
echo "serve_smoke: --stats across a reload counts every request and the resident result"

# ---- 5. reloads from memory after edits --------------------------------
# `serve --incremental` on web-600. After a pointer edit, then a comment
# edit, of f1_3, each followed by `reload`, the daemon reads the entry
# that its previous save wrote, whose sections it still holds decoded
# (docs/INCREMENTAL.md, "Resident sections"). The `calls` answer and
# the function pointer's `pts` answer at every indirect call must equal
# `ptan query --no-cache` on the edited text. Each reload's round trip
# is printed for information only; there is no wall-clock gate.
web="$tmp/web.c"
"$ptan" gen --seed 11 --size 600 --depth 4 --fnptr-density 30 --out "$web" >/dev/null
mkfifo "$tmp/in5"
"$ptan" serve "$web" --incremental --cache-dir "$tmp/cache5" \
  <"$tmp/in5" >"$tmp/got5.txt" 2>"$tmp/serve5.err" &
daemon_pid=$!
exec 4>"$tmp/in5"
wait_for '^serve: ready' "$tmp/serve5.err"
replies=0

wait_replies() { # wait_replies N: until got5.txt has N lines
  i=0
  while [ "$(wc -l <"$tmp/got5.txt")" -lt "$1" ]; do
    i=$((i + 1))
    [ "$i" -lt 2000 ] || { echo "serve_smoke: timed out waiting for reply $1" >&2; exit 1; }
    sleep 0.005
  done
}

edit_top() { # edit_top FILE FN LINE
  awk -v fn="$2" -v line="$3" '
    $0 == "int " fn "(int n, int *p) {" { inside = 1 }
    inside && $0 == "    r = n;" { print line; inside = 0 }
    { print }' "$1" >"$1.tmp" && mv "$1.tmp" "$1"
}

# reload_and_query WHAT: reload the edited text, then query it
reload_and_query() {
  start=$(date +%s%N)
  printf 'reload web\n' >&4
  replies=$((replies + 1))
  wait_replies "$replies"
  rt_ms=$(( ($(date +%s%N) - start) / 1000000 ))
  reply=$(sed -n "${replies}p" "$tmp/got5.txt")
  case $reply in
    "ok reloaded "*) ;;
    *) echo "serve_smoke: reload after the $1 replied '$reply'" >&2; exit 1 ;;
  esac
  echo "serve_smoke: reload after the $1: ${rt_ms} ms round trip, ${reply#ok reloaded }"
  # at each indirect call of the edited text: its targets, and the set
  # of the pointer it calls through
  "$ptan" simple "$web" | awk '
    /^[a-z].*\(.*\)$/ { fn = $2; sub(/\(.*/, "", fn) }
    /\(\*fp\)\(/ && match($0, /\/\* s[0-9]+ \*\//) {
      sid = substr($0, RSTART + 3, RLENGTH - 6)
      print "calls " sid
      print "pts " fn " " sid " fp"
    }' >"$tmp/q5.txt"
  [ -s "$tmp/q5.txt" ] || { echo "serve_smoke: no indirect call to query" >&2; exit 1; }
  : >"$tmp/want5.txt"
  from=$((replies + 1))
  while read -r q; do
    printf 'q web %s\n' "$q" >&4
    replies=$((replies + 1))
    # shellcheck disable=SC2086 # the query's words
    if out=$("$ptan" query "$web" --no-cache $q 2>"$tmp/qerr"); then
      printf 'ok %s\n' "$out" >>"$tmp/want5.txt"
    else
      printf 'error %s\n' "$(sed 's/^error: //' "$tmp/qerr")" >>"$tmp/want5.txt"
    fi
  done <"$tmp/q5.txt"
  wait_replies "$replies"
  sed -n "${from},${replies}p" "$tmp/got5.txt" >"$tmp/have5.txt"
  diff -u "$tmp/want5.txt" "$tmp/have5.txt" \
    || { echo "serve_smoke: replies after the $1 diverge from ptan query --no-cache" >&2; exit 1; }
  echo "serve_smoke: $(wc -l <"$tmp/have5.txt") replies after the $1 equal ptan query --no-cache"
}

edit_top "$web" f1_3 "    gp0 = &gv1;"
reload_and_query "pointer edit"
edit_top "$web" f1_3 "    /* a comment */"
reload_and_query "comment edit"
printf 'quit\n' >&4
if wait "$daemon_pid"; then st=0; else st=$?; fi
daemon_pid=
exec 4>&-
[ "$st" -eq 0 ] \
  || { echo "serve_smoke: the reload daemon exited $st" >&2; cat "$tmp/serve5.err" >&2; exit 1; }

echo "serve_smoke: OK"
