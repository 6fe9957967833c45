#pragma once
// Origin/edge snapshot replication: the wire vocabulary.
//
// Replication rides the IRRd framed protocol the daemon already speaks —
// no second listener, no second framing layer. An origin (`serve
// --publish`) answers three extra admin verbs; an edge (`serve --origin`)
// issues them from a background agent thread:
//
//   !repl.info                     current generation announcement:
//                                  "gen/build-id/checksum/digest/size/
//                                  chunk-bytes" key: value lines (framed A
//                                  response), or "D\n" before the first
//                                  publish.
//   !repl.fetch <gen> <off> <len>  one checksummed chunk of the arena
//                                  image, framed as "A<n>\n<bytes>C\n"
//                                  (binary-safe: the frame is length-
//                                  prefixed, never newline-delimited).
//                                  "F generation ... is not current" tells
//                                  a mid-transfer edge to re-poll.
//   !repl.beat <id> <gen> <health> <qps> [digest]
//                                  edge heartbeat; origin records it for
//                                  the `!repl` fleet table and answers
//                                  "C\n". The optional fifth field is a
//                                  single-token metric digest (see
//                                  MetricDigest below) that feeds the
//                                  origin's `!fleet` aggregation; origins
//                                  accept the four-field legacy form from
//                                  older edges.
//   !repl                          role-specific status page (both sides).
//
// Generation identity is *content*, not labels: `checksum` is the arena's
// internal digest over everything after the fixed header (stable across
// origin restarts, which reset the gen counter and mint a new build-id),
// while `digest` covers the whole transferable image (header included) and
// is what an edge verifies a completed download against. An edge whose
// local checksum matches the announcement adopts the announced gen without
// re-fetching a byte.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rpslyzer::repl {

/// One published snapshot generation, as announced by `!repl.info`.
struct GenerationInfo {
  std::uint64_t gen = 0;       // origin-incarnation-local counter, from 1
  std::uint64_t build_id = 0;  // compile-time id of the snapshot
  std::uint64_t checksum = 0;  // content identity (excludes the header)
  std::uint64_t digest = 0;    // whole-image transfer digest
  std::uint64_t size = 0;      // image bytes
  std::uint64_t chunk_bytes = 0;  // origin's preferred fetch granularity

  bool same_content(const GenerationInfo& other) const noexcept {
    return checksum == other.checksum && size == other.size;
  }
};

/// Render / parse the `!repl.info` payload (unframed "key: value" lines).
/// parse_info returns nullopt on any missing or malformed field, so a
/// half-garbled announcement can never start a transfer.
std::string render_info(const GenerationInfo& info);
std::optional<GenerationInfo> parse_info(std::string_view payload);

/// Compact per-edge metric digest, piggybacked on `!repl.beat` as one
/// space-free token so the beat stays a single line:
///
///   v1;qt=<queries>;ch=<cache-hits>;cm=<cache-misses>;rd=<recorder-drops>;
///   hb=<heartbeat-ms>;lc=<latency-count>;ls=<latency-sum-us>;lb=<b0:b1:...>
///
/// `lb` carries the edge's raw latency histogram bucket counts (the edge's
/// own bucket layout; the origin only merges layouts whose bucket count
/// matches its own bounds). `hb` lets the origin derive a staleness
/// threshold per edge instead of guessing a global one. Unknown keys are
/// forward-compatible noise, mirroring parse_info.
struct MetricDigest {
  std::uint64_t queries_total = 0;      // qt: cumulative accepted queries
  std::uint64_t cache_hits = 0;         // ch: response-cache hits
  std::uint64_t cache_misses = 0;       // cm: response-cache misses (= evaluations)
  std::uint64_t recorder_drops = 0;     // rd: flight-recorder overwrites
  std::uint64_t heartbeat_ms = 0;       // hb: configured heartbeat period
  std::uint64_t latency_count = 0;      // lc: histogram sample count
  std::uint64_t latency_sum_micros = 0; // ls: histogram sum, microseconds
  std::vector<std::uint64_t> latency_buckets;  // lb: raw per-bucket counts
};

/// Render / parse the beat digest token. parse_digest returns nullopt on a
/// missing version tag, duplicate key, or any malformed numeric field — a
/// garbled digest refuses the whole beat rather than polluting the fleet
/// aggregate with partial numbers.
std::string render_digest(const MetricDigest& digest);
std::optional<MetricDigest> parse_digest(std::string_view token);

/// Jittered heartbeat period: base scaled into [0.80, 1.20], deterministic
/// in (seed, tick). Jitter is load-bearing fleet hygiene — N edges started
/// by the same orchestrator must not beat against the origin in lockstep.
std::chrono::milliseconds heartbeat_interval(std::chrono::milliseconds base,
                                             std::uint64_t seed,
                                             std::uint64_t tick) noexcept;

/// Fixed-width lowercase hex (16 digits) for checksums/digests on the wire
/// and in status pages; parse_hex64 accepts exactly that form.
std::string hex64(std::uint64_t v);
std::optional<std::uint64_t> parse_hex64(std::string_view text) noexcept;

}  // namespace rpslyzer::repl
