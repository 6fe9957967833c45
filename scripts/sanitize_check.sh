#!/usr/bin/env bash
# Build with -DRPSLYZER_SANITIZE=ON (ASan + UBSan) and run the fault/server
# test set (ctest label "fault", which includes the telemetry suite
# obs_test) plus the snapshot persistence suite (label "persist"): any data
# race turned heap error, leaked connection buffer, leaked socket-owning
# object, or out-of-bounds read off a truncated mmap fails the run. The same set is then re-run
# under a matrix of RPSLYZER_FAILPOINTS environments so the injected error,
# delay, and truncate paths are sanitizer-clean too. Finally, when the
# toolchain has a working TSan runtime, the relaxed-atomic telemetry hot
# paths (obs_test) and the server loop (server_test) are re-run under
# ThreadSanitizer in a second side build.
# Uses side build directories so the normal build stays fast.
#
#   scripts/sanitize_check.sh [build-dir]
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-sanitize}"

# Cheap static gate first: every metric family minted in src/ must be in
# DESIGN.md's metrics table before we spend minutes on sanitizer builds.
"$ROOT/scripts/check_metrics_docs.sh"

cmake -B "$BUILD" -S "$ROOT" -DRPSLYZER_SANITIZE=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target \
  server_test query_test irr_index_test fault_injection_test loader_files_test obs_test \
  parallel_loader_test shard_fuzz_test compile_snapshot_test parallel_verify_test \
  persist_test repl_test source_test delta_test delta_fuzz_test arena_interner_test rand_test \
  verifier_test report_test bgp_parse_reference_test relations_parse_reference_test \
  aggregate_golden_test prefix_test stats_test lint_test sec4_golden_test rpslyzer_cli

run_labeled() {
  local spec="$1" exclude="${2:-}" labels="${3:-fault}"
  echo "== RPSLYZER_FAILPOINTS='${spec}' labels='${labels}' =="
  (cd "$BUILD" && RPSLYZER_FAILPOINTS="$spec" \
     ctest -L "$labels" ${exclude:+-E "$exclude"} --output-on-failure -j4)
}

# Baseline (fault plus the mmap/decode-heavy persist suite — the snapshot
# loader's pointer fixups and bounds checks are exactly what ASan/UBSan
# police — plus the replication suite, whose torn-transfer and digest-
# mismatch failpoint paths juggle partial files and raw byte buffers
# across the edge agent thread, and the generation-source suite, where a
# follower polled after its server is destroyed must not touch it), then
# each action kind. Error actions are limited to sites whose
# callers degrade gracefully (cache bypass); tests that assert exact cache
# hit counts are excluded from that entry since bypassing the cache is its
# intended observable effect. The loader/server error paths are driven
# programmatically by fault_injection_test, where the test controls the
# blast radius.
run_labeled "" "" "fault|persist|repl|delta|parallel"
# UBSan only reports by default, so these suites run again with UBSan
# errors fatal. Unlabeled: the verifier's reject-all fast path, the rule
# merge and its per-thread dedup index, the compact item encoding (inline
# and heap words, run headers), and the hashed report aggregation.
# Labeled, run above non-fatally: the compiled snapshot suite and the
# telemetry suite. The table-dump and address parsers over seeded random
# lines (this run caught a 64-bit shift in IpAddress::masked for /64
# prefixes), and the relationship parser likewise. The plan fold's prev
# chains and the run constructor's word copy (verifier_test's property
# tests), and the flat aggregation tables over a whole small corpus
# (aggregate_golden_test). The snapshot writer's zero-length copies (an
# empty section table or payload) once reached memcpy with a null pointer,
# which is why the persist suite joined this list first. The distinct-hop
# grouping in verify_routes_parallel (parallel_verify_test) is index
# arithmetic over shared arrays: prefix groups, run offsets, trie links.
# So are the prefix trie's 32-bit child links, its erase-time pruning and
# re-layout (prefix_test's property tests), and the origin table's pool
# offsets as the delta pipeline patches and compacts them (delta_test).
# delta_fuzz_test loads its corpus through the delta store's pooled init
# and then refuses seeded malformed journals on top of it. The policy-tree
# walk (ir/walk.hpp) recurses through util::Box pointers for the census,
# the linter and the classifier: stats_test and lint_test on hand-written
# rules, sec4_golden_test over a whole small corpus.
for suite in verifier_test report_test compile_snapshot_test obs_test bgp_parse_reference_test \
             relations_parse_reference_test aggregate_golden_test persist_test \
             parallel_verify_test prefix_test delta_test delta_fuzz_test stats_test lint_test \
             sec4_golden_test; do
  UBSAN_OPTIONS=halt_on_error=1 "$BUILD/tests/$suite"
done
run_labeled "server.send=delay(2ms);server.dispatch=delay(1ms)"
run_labeled "cache.get=error;cache.put=error" 'Server\.|ResponseCache'
run_labeled "irr.parse=truncate(65536)"

# 100-batch differential-equivalence soak (incremental apply vs full
# recompile, byte-compared after every batch) against the sanitized CLI —
# the delta acceptance bar requires the byte-identity proof to hold under
# ASan/UBSan, not just in the fast build.
"$ROOT/scripts/delta_equiv_check.sh" "$BUILD/tools/rpslyzer"

# Leak + footprint gate: a synthetic load+verify run of the sanitized CLI
# under LeakSanitizer must report zero definite leaks and stay under the
# peak-RSS ceiling (the arena/interner refactor trades copies for pooled
# storage; this is the check that the pools do not merely hide growth).
"$ROOT/scripts/alloc_check.sh" "$BUILD/tools/rpslyzer"

# TSan pass (if the toolchain supports it): the metrics registry, log gate,
# and span recording all lean on relaxed atomics, the sharded ingestion
# pipeline and the table-dump parser merge per-shard results across a
# worker pool, and parallel verification shares one immutable
# CompiledPolicySnapshot (and one const Verifier) across every worker, so a
# race-detector run of obs_test's multi-threaded tests, the server loop, the
# parallel loader and table-dump differential suites, and the
# snapshot-sharing verify tests is the strongest check that
# "lock-cheap" (and "lock-free-by-immutability") did not become "racy".
TSAN_BUILD="${BUILD}-tsan"
tsan_probe="$(mktemp -d)"
printf 'int main(){return 0;}\n' > "$tsan_probe/probe.c"
if cc -fsanitize=thread "$tsan_probe/probe.c" -o "$tsan_probe/probe" 2>/dev/null \
   && "$tsan_probe/probe" 2>/dev/null; then
  echo "== ThreadSanitizer pass =="
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DRPSLYZER_SANITIZE_THREAD=ON >/dev/null
  cmake --build "$TSAN_BUILD" -j "$(nproc)" --target obs_test server_test parallel_loader_test \
    compile_snapshot_test parallel_verify_test bgp_parse_reference_test verifier_test \
    persist_test repl_test source_test delta_test delta_fuzz_test arena_interner_test
  "$TSAN_BUILD/tests/obs_test"
  "$TSAN_BUILD/tests/server_test"
  "$TSAN_BUILD/tests/parallel_loader_test"
  "$TSAN_BUILD/tests/compile_snapshot_test"
  "$TSAN_BUILD/tests/parallel_verify_test"
  # Table-dump shards are parsed on pool workers, each into its own route
  # vector and stats, then joined on the calling thread.
  "$TSAN_BUILD/tests/bgp_parse_reference_test"
  # Every worker reads the snapshot's fold plans and keeps its own leased
  # rule-merge buffers; the plans must stay read-only after build.
  "$TSAN_BUILD/tests/verifier_test"
  # The server-reload persist tests share one mmap'd snapshot across the
  # accept loop and worker threads — the aliasing shared_ptr ownership is
  # the racy-by-construction surface TSan should sign off on.
  "$TSAN_BUILD/tests/persist_test"
  # The replication suite runs an edge agent thread against a live origin
  # event loop: condvar wakeups, atomic status counters, and the activation
  # callback crossing threads are all under the race detector here.
  "$TSAN_BUILD/tests/repl_test"
  # A generation source's attach()/detach() race its own threads: the
  # follower's poll thread and the edge agent call request_reload() and
  # read server state right up to the detach that joins them.
  "$TSAN_BUILD/tests/source_test"
  # The delta pipeline splits its state behind two mutexes (apply vs
  # publish/stats) and shares immutable previous-generation tables into the
  # next snapshot: whole compiled aut-nums and the origin table, which
  # server workers read while the reclaimer thread frees old generations.
  # The differential suite recompiles under that sharing on every batch, so
  # a TSan pass here signs off the reuse scheme. Both suites also load
  # their corpora through the store's init, whose workers parse dump shards
  # into tables of their own that the calling thread then merges.
  "$TSAN_BUILD/tests/delta_test"
  "$TSAN_BUILD/tests/delta_fuzz_test"
  # The interner's lock-free read path (acquire cell loads against the
  # locked insert's release publication) is precisely the kind of
  # annotation-free synchronization TSan exists to audit.
  "$TSAN_BUILD/tests/arena_interner_test"
else
  echo "== ThreadSanitizer unavailable on this toolchain; skipping TSan pass =="
fi
rm -rf "$tsan_probe"

echo "sanitize check ok"
