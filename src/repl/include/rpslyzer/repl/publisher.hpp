#pragma once
// Origin-side replication: serve snapshot generations to a fleet of edges.
//
// The publisher owns one immutable in-memory arena image at a time (the
// exact bytes ArenaWriter would put on disk). publish() serializes a
// CompiledPolicySnapshot and — only if its content checksum differs from
// the current generation's — bumps the generation counter and swaps the
// image in under a shared_ptr, so in-flight fetches of the previous
// generation keep their bytes alive until the last chunk is served.
// handle() answers the `!repl*` admin verbs and returns fully framed
// responses; the server routes the verbs here as a GenerationSource,
// bypassing the response cache (a chunk response can be megabytes, and
// caching it would evict the entire query LRU). `serve --publish` makes
// the publisher a decorator around the daemon's real source: load()
// publishes whatever the inner source returns.
//
// All handle() calls arrive on the server's event-loop thread; publish()
// arrives on whatever thread runs the reload. One mutex covers both — the
// critical sections are pointer swaps and map updates, never byte copies.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rpslyzer/repl/protocol.hpp"
#include "rpslyzer/server/server.hpp"

namespace rpslyzer::compile {
class CompiledPolicySnapshot;
}

namespace rpslyzer::repl {

/// Last heartbeat received from one edge, for the `!repl` fleet table and
/// the `!fleet` aggregation. `digest` is absent for legacy four-field
/// beats; such edges appear in the fleet table but contribute nothing to
/// the merged totals or histogram.
struct EdgeRecord {
  std::uint64_t gen = 0;
  std::string health;
  double qps = 0.0;
  std::chrono::steady_clock::time_point last_seen{};
  std::optional<MetricDigest> digest;
};

class Publisher final : public server::GenerationSource {
 public:
  /// chunk_bytes is the fetch granularity announced to edges; requests for
  /// larger ranges are refused (an edge that ignores the announcement
  /// cannot DoS the origin's event loop with one giant frame). Without an
  /// inner source, generations arrive only through publish().
  explicit Publisher(std::size_t chunk_bytes = 256 * 1024,
                     std::shared_ptr<server::GenerationSource> inner = nullptr);

  std::shared_ptr<const compile::CompiledPolicySnapshot> load() override;
  /// Adopts the server's latency buckets, then attaches the inner source.
  void attach(server::Server& server) override;
  void detach() override { if (inner_) inner_->detach(); }
  std::optional<std::string> repl(std::string_view body) override { return handle(body); }
  std::optional<std::string> fleet() const override { return fleet_payload(); }
  std::string metrics_text() const override {
    return fleet_prometheus() + (inner_ ? inner_->metrics_text() : std::string());
  }

  /// Serialize and (if content changed) publish a new generation. Returns
  /// the generation now current. Safe to call from the reload path on
  /// every successful load — identical content is deduplicated by arena
  /// checksum, so a `kill -HUP` with unchanged dumps does not force the
  /// fleet to re-download anything.
  std::uint64_t publish(const compile::CompiledPolicySnapshot& snap);

  /// Handle the body of a `!repl...` admin query (everything after the
  /// "repl" token: "", ".info", ".fetch <gen> <off> <len>",
  /// ".beat <id> <gen> <health> <qps>"). Returns a complete framed
  /// response ("A<n>\n...C\n", "C\n", "D\n", or "F ...\n").
  std::string handle(std::string_view body);

  /// Announcement for the current generation; gen == 0 before the first
  /// publish.
  GenerationInfo current_info() const;

  /// One "repl: ..." line for the extended `!stats` payload, followed by
  /// the inner source's line(s).
  std::string stats_line() const override;

  /// The latency-bucket layout fleet histograms are merged against; edges
  /// whose digest carries a different bucket count are skipped (their
  /// counters still aggregate). Defaults to ServerStats'
  /// default_latency_bounds. Call before serving traffic.
  void set_latency_bounds(std::vector<double> bounds);

  /// Unframed `!fleet` payload: merged totals, fleet-wide percentiles, and
  /// one row per edge. An edge whose last beat is older than four
  /// heartbeat periods (its digest's `hb`, or 5 s for legacy beats) is
  /// marked `stale=1` and excluded from totals and the merged histogram —
  /// a SIGKILLed edge must not freeze the fleet p99 at its last numbers.
  std::string fleet_payload() const;

  /// The same aggregation as complete Prometheus families
  /// (`rpslyzer_fleet_*`, per-edge series labelled {edge="<id>"}), ready
  /// to append to a `!metrics` page (metrics_text() does).
  std::string fleet_prometheus() const;

 private:
  struct FleetView;  // one locked pass over edges_, shared by both renderers

  std::string handle_info() const;
  std::string handle_fetch(std::string_view args);
  std::string handle_beat(std::string_view args);
  std::string status_payload() const;
  FleetView fleet_view() const;

  const std::shared_ptr<server::GenerationSource> inner_;
  mutable std::mutex mu_;
  std::shared_ptr<const std::vector<std::byte>> image_;
  GenerationInfo info_;
  std::map<std::string, EdgeRecord> edges_;
  std::vector<double> latency_bounds_;
  const std::size_t chunk_bytes_;
};

}  // namespace rpslyzer::repl
