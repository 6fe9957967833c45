#!/usr/bin/env bash
# End-to-end smoke test of the rpslyzer CLI: generate a corpus, then run
# every subcommand against it — including a live rpslyzerd round trip.
set -euo pipefail
CLI="$1"
LOADGEN="${2:-}"
DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

# NB: plain `grep X >/dev/null`, not `grep -q`: -q exits at the first match,
# which under pipefail turns a chatty writer into a SIGPIPE (exit 141) flake.
"$CLI" generate "$DIR" 0.1 7 | grep "wrote" >/dev/null
"$CLI" parse "$DIR" | grep "merged corpus" >/dev/null
"$CLI" export "$DIR" "$DIR/ir.json" | grep "exported" >/dev/null
test -s "$DIR/ir.json"
"$CLI" lint "$DIR" | grep "findings" >/dev/null || true   # exits 1 when findings exist
# Parallel sharded ingestion with tracing: the trace must record the
# per-shard parse spans, proving the load actually went through the pool.
"$CLI" load "$DIR" --threads 2 --shard-kb 4 --trace-out "$DIR/trace.json" \
  | grep "loaded" >/dev/null
grep -q '"irr.shard"' "$DIR/trace.json"
grep -q '"irr.cut"' "$DIR/trace.json"
"$CLI" verify "$DIR" > "$DIR/verify.txt"
grep "checks from" "$DIR/verify.txt" >/dev/null
# The verdict report does not depend on the worker count (0 = all cores).
for threads in 1 3 0; do
  "$CLI" verify "$DIR" --threads "$threads" | cmp - "$DIR/verify.txt"
done
# Verify one concrete route: pick a line whose AS path has >= 2 hops
# (single-AS routes are the collector peer's own prefixes).
LINE="$(awk -F'|' 'split($2, a, " ") >= 2 {print; exit}' "$DIR/collector-0.dump")"
PREFIX="${LINE%%|*}"
ASPATH="${LINE#*|}"
"$CLI" report "$DIR" "$PREFIX" $ASPATH | grep -E "(Ok|Meh|Bad|Unrec|Skip)(Import|Export)" >/dev/null
# One-shot IRRd query against an origin that certainly has route objects.
ASN="$(awk '/^origin:/ {print $2; exit}' "$DIR"/*.db)"
"$CLI" query "$DIR" "!g$ASN" > "$DIR/oneshot.txt"
grep -q "^A" "$DIR/oneshot.txt"
"$CLI" query "$DIR" "!gAS4199999999" | grep -x "D" >/dev/null

# Query server: start on an ephemeral port, compare a daemon answer byte for
# byte with the one-shot result, push load through loadgen, then assert a
# clean SIGTERM shutdown.
"$CLI" serve "$DIR" --port 0 --threads 2 --stats-ms 0 > "$DIR/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening" "$DIR/serve.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$DIR/serve.log" | head -1)"
test -n "$PORT"

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf '!g%s\n!q\n' "$ASN" >&3
cat <&3 > "$DIR/daemon.txt"
exec 3<&- 3>&-
cmp "$DIR/daemon.txt" "$DIR/oneshot.txt"

if [ -n "$LOADGEN" ]; then
  "$LOADGEN" --port "$PORT" --connections 4 --pipeline 8 --requests 100 \
      --json "!g$ASN" "!stats" "!iAS-NOPE" | grep '"failed":false' >/dev/null
fi

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"   # non-zero here means the daemon did not shut down cleanly
SERVER_PID=""
grep -q "shut down cleanly" "$DIR/serve.log"

# Snapshot persistence round-trip: compile the corpus once into a
# relocatable snapshot file, serve the file (no dumps in sight), and check
# the daemon's query and verify answers against the dump-backed results.
"$CLI" compile "$DIR" --out "$DIR/snap.rps" | grep "wrote" >/dev/null
test -s "$DIR/snap.rps"
"$CLI" serve --snapshot "$DIR/snap.rps" --port 0 --threads 2 --stats-ms 0 \
  > "$DIR/serve-snap.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening" "$DIR/serve-snap.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$DIR/serve-snap.log" | head -1)"
test -n "$PORT"

# !g from the mmap-served snapshot must be byte-identical to the one-shot
# answer computed from the dumps.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf '!g%s\n!q\n' "$ASN" >&3
cat <&3 > "$DIR/daemon-snap.txt"
exec 3<&- 3>&-
cmp "$DIR/daemon-snap.txt" "$DIR/oneshot.txt"

# !v against the snapshot answers (framed A response), and !stats names the
# snapshot file as the corpus source.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf '!v %s %s\n!stats\n!q\n' "$PREFIX" "$ASPATH" >&3
cat <&3 > "$DIR/daemon-verify.txt"
exec 3<&- 3>&-
grep -q "^A" "$DIR/daemon-verify.txt"
grep -q "source=file:" "$DIR/daemon-verify.txt"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
grep -q "shut down cleanly" "$DIR/serve-snap.log"

# A corrupt snapshot file must refuse to serve.
head -c 100 "$DIR/snap.rps" > "$DIR/snap-truncated.rps"
if "$CLI" serve --snapshot "$DIR/snap-truncated.rps" --port 0 >/dev/null 2>&1; then exit 1; fi

# Replication round trip: an origin publishes the corpus, an edge downloads
# and serves it, and the edge's answers are byte-identical to the one-shot
# result. NB: the port regex is anchored to the start of the listening line
# because an edge's own line embeds the ORIGIN's port in "corpus=repl:...".
ORIGIN_PID=""
EDGE_PID=""
repl_cleanup() {
  [ -n "$EDGE_PID" ] && kill "$EDGE_PID" 2>/dev/null || true
  [ -n "$ORIGIN_PID" ] && kill "$ORIGIN_PID" 2>/dev/null || true
  cleanup
}
trap repl_cleanup EXIT
"$CLI" serve "$DIR" --publish --port 0 --threads 2 --stats-ms 0 \
  > "$DIR/origin.log" 2>&1 &
ORIGIN_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening" "$DIR/origin.log" 2>/dev/null && break
  sleep 0.1
done
OPORT="$(sed -n 's/^rpslyzerd listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$DIR/origin.log" | head -1)"
test -n "$OPORT"
grep -q "publish" "$DIR/origin.log"

mkdir -p "$DIR/edge-state"
"$CLI" serve --origin "127.0.0.1:$OPORT" --repl-dir "$DIR/edge-state" \
  --edge-id smoke-edge --poll-ms 200 --heartbeat-ms 200 --port 0 --threads 2 \
  --stats-ms 0 > "$DIR/edge.log" 2>&1 &
EDGE_PID=$!
for _ in $(seq 1 150); do
  grep -q "listening" "$DIR/edge.log" 2>/dev/null && break
  sleep 0.1
done
EPORT="$(sed -n 's/^rpslyzerd listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$DIR/edge.log" | head -1)"
test -n "$EPORT"
test "$EPORT" != "$OPORT"

# The edge serves the replicated generation byte-for-byte, and its !stats
# names the replicated snapshot as the corpus source.
exec 3<>"/dev/tcp/127.0.0.1/$EPORT"
printf '!g%s\n!stats\n!repl\n!q\n' "$ASN" >&3
cat <&3 > "$DIR/edge-answers.txt"
exec 3<&- 3>&-
head -c "$(wc -c < "$DIR/oneshot.txt")" "$DIR/edge-answers.txt" > "$DIR/edge-g.txt"
cmp "$DIR/edge-g.txt" "$DIR/oneshot.txt"
grep -q "source=repl:" "$DIR/edge-answers.txt"
grep -q "role: edge" "$DIR/edge-answers.txt"

# The origin's fleet page eventually lists the edge's heartbeat.
BEAT_SEEN=""
for _ in $(seq 1 50); do
  exec 3<>"/dev/tcp/127.0.0.1/$OPORT"
  printf '!repl\n!q\n' >&3
  cat <&3 > "$DIR/origin-repl.txt"
  exec 3<&- 3>&-
  if grep -q "edge: smoke-edge" "$DIR/origin-repl.txt"; then BEAT_SEEN=1; break; fi
  sleep 0.1
done
test -n "$BEAT_SEEN"
grep -q "role: origin" "$DIR/origin-repl.txt"

kill -TERM "$EDGE_PID"
wait "$EDGE_PID"
EDGE_PID=""
grep -q "shut down cleanly" "$DIR/edge.log"
kill -TERM "$ORIGIN_PID"
wait "$ORIGIN_PID"
ORIGIN_PID=""
grep -q "shut down cleanly" "$DIR/origin.log"

# Bad usage exits non-zero.
if "$CLI" nonsense >/dev/null 2>&1; then exit 1; fi
if "$CLI" serve >/dev/null 2>&1; then exit 1; fi
# A missing corpus dir must refuse to serve, not answer D to everything.
if "$CLI" serve "$DIR/nope" --port 0 >/dev/null 2>&1; then exit 1; fi
if "$CLI" query "$DIR/nope" '!gAS1' >/dev/null 2>&1; then exit 1; fi

# Numeric flags parse strictly and are refused before anything starts: exit
# 2 (usage) naming the bad value, never a daemon asking for UINT_MAX
# workers or a port wrapped mod 65536. The corpus dir does not exist, so a
# parser that let the value through would fail later, at the load, with 1.
# A refused flag that takes no value (the last argument) is named as unknown.
expect_usage() {  # <args...>
  local rc=0
  "$CLI" "$@" > "$DIR/bad.out" 2> "$DIR/bad.err" || rc=$?
  test "$rc" = 2
  grep -q "^usage: rpslyzer" "$DIR/bad.err"
  grep -q -e "expect" -e "unknown flag ${*: -1}\$" "$DIR/bad.err"
  if grep -q "listening" "$DIR/bad.out"; then exit 1; fi
}
expect_usage serve "$DIR/nope" --threads -1
expect_usage serve "$DIR/nope" --port 70000
expect_usage serve "$DIR/nope" --cache 12x
expect_usage serve "$DIR/nope" --idle-ms -5
expect_usage serve --synth --scale -1
expect_usage serve --origin 127.0.0.1:abc --repl-dir "$DIR/nope-edge" --origin-timeout-ms 1
expect_usage load "$DIR/nope" --threads -1
expect_usage compile "$DIR/nope" --out "$DIR/nope.rps" --threads -1
expect_usage verify "$DIR/nope" --threads 4294967297
# verify has one backend and no flag to pick another: --interpreted is an
# unknown flag, refused before the (existing) corpus loads.
expect_usage verify "$DIR" --interpreted
expect_usage journal apply "$DIR/nope" --journal "$DIR/nope-j" --threads -1
expect_usage generate "$DIR/nope-gen" 0.1 -7
test ! -e "$DIR/nope-edge"
test ! -e "$DIR/nope-gen"

# The remaining generation sources, one daemon at a time: start_daemon
# <log> <serve args...> sets SERVER_PID and PORT, ask <query...> prints the
# answers, stop_daemon <log> asserts a clean SIGTERM shutdown.
start_daemon() {
  local log="$1"
  shift
  "$CLI" serve "$@" --port 0 --threads 2 --stats-ms 0 > "$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 150); do
    grep -q "listening" "$log" 2>/dev/null && break
    sleep 0.1
  done
  PORT="$(sed -n 's/^rpslyzerd listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$log" | head -1)"
  test -n "$PORT"
}
ask() {
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf '%s\n' "$@" '!q' >&3
  cat <&3
  exec 3<&- 3>&-
}
stop_daemon() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  SERVER_PID=""
  grep -q "shut down cleanly" "$1"
}

# --synth at the generated corpus's scale and seed serves that very corpus,
# byte for byte, and a plain loader source has no replication role.
start_daemon "$DIR/serve-synth.log" --synth --scale 0.1 --seed 7
grep -q "corpus=synthetic)" "$DIR/serve-synth.log"
ask "!g$ASN" > "$DIR/synth-g.txt"
cmp "$DIR/synth-g.txt" "$DIR/oneshot.txt"
ask '!repl' '!fleet' > "$DIR/synth-admin.txt"
printf 'F replication not enabled\nF fleet aggregation not enabled\n' | cmp - "$DIR/synth-admin.txt"
stop_daemon "$DIR/serve-synth.log"

# --snapshot-cache: the first load compiles and fills the cache, a !reload
# of the unchanged corpus mmaps the cached generation, and the answers stay
# byte-identical across the swap.
start_daemon "$DIR/serve-cache.log" "$DIR" --snapshot-cache "$DIR/snapcache"
ask '!stats' | grep "source=memory" >/dev/null
ask '!reload' > "$DIR/cache-reload.txt"
printf 'C\n' | cmp - "$DIR/cache-reload.txt"
ask '!stats' > "$DIR/cache-stats.txt"
grep -q "^generation: 2$" "$DIR/cache-stats.txt"
grep -q "source=cache:" "$DIR/cache-stats.txt"
ask "!g$ASN" > "$DIR/cache-g.txt"
cmp "$DIR/cache-g.txt" "$DIR/oneshot.txt"
stop_daemon "$DIR/serve-cache.log"

# --journal: batches dropped into the followed directory are applied and
# reload the daemon. The churn protects $ASN, so its answer must not move.
"$CLI" journal synth "$DIR" --out "$DIR/jstage" --batches 2 --ops 12 --seed 5 \
  --protect "$ASN" | grep "wrote" >/dev/null
mkdir -p "$DIR/journal"
start_daemon "$DIR/serve-journal.log" "$DIR" --journal "$DIR/journal" --journal-poll-ms 50
grep -q "journal:$DIR/journal)" "$DIR/serve-journal.log"
ask '!stats' | grep "files_done=0" >/dev/null
mv "$DIR"/jstage/batch-*.nrtm "$DIR/journal/"
JOURNAL_DONE=""
for _ in $(seq 1 100); do
  if ask '!stats' | grep "files_done=2" >/dev/null; then JOURNAL_DONE=1; break; fi
  sleep 0.1
done
test -n "$JOURNAL_DONE"
ask '!stats' > "$DIR/journal-stats.txt"
grep -q "^delta: serial=[1-9][0-9]* generation=3 batches=2 " "$DIR/journal-stats.txt"
grep -q "^generation: [23]$" "$DIR/journal-stats.txt"
ask "!g$ASN" > "$DIR/journal-g.txt"
cmp "$DIR/journal-g.txt" "$DIR/oneshot.txt"
stop_daemon "$DIR/serve-journal.log"
echo "cli smoke ok"
