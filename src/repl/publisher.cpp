#include "rpslyzer/repl/publisher.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/persist/snapshot_io.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/server/stats.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::repl {

namespace {

obs::Counter& publishes_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_publishes_total",
      "Snapshot generations published by the origin (content changes only)");
  return c;
}

obs::Counter& chunks_served_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_chunks_served_total", "Replication chunks served to edges");
  return c;
}

obs::Counter& bytes_served_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_bytes_served_total", "Replication payload bytes served to edges");
  return c;
}

obs::Counter& beats_received_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_beats_received_total", "Edge heartbeats received by the origin");
  return c;
}

/// Split on single spaces; empty fields collapse (the verbs are
/// origin-generated or edge-generated, never human-typed, but a stray
/// double space should not turn into an empty edge id).
std::vector<std::string_view> split_fields(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    while (pos < s.size() && s[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < s.size() && s[end] != ' ') ++end;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

/// Staleness threshold for one edge: four heartbeat periods from its own
/// digest (so a slow-beating fleet is not declared dead by a fast default),
/// 5 s for legacy digest-less beats.
std::chrono::milliseconds stale_after(const EdgeRecord& rec) {
  if (rec.digest && rec.digest->heartbeat_ms > 0) {
    return std::chrono::milliseconds(
        4 * std::max<std::uint64_t>(rec.digest->heartbeat_ms, 250));
  }
  return std::chrono::milliseconds(5000);
}

/// Prometheus label-value escaping (backslash, quote, newline), local copy
/// of what obs::to_prometheus does for registry-rendered labels — edge ids
/// arrive off the wire and must not be able to break the exposition.
std::string escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string format_bound(double bound) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", bound);
  return buf;
}

}  // namespace

Publisher::Publisher(std::size_t chunk_bytes, std::shared_ptr<server::GenerationSource> inner)
    : inner_(std::move(inner)),
      latency_bounds_(server::ServerStats::default_latency_bounds()),
      chunk_bytes_(std::max<std::size_t>(chunk_bytes, 4096)) {}

std::shared_ptr<const compile::CompiledPolicySnapshot> Publisher::load() {
  auto snap = inner_ ? inner_->load() : nullptr;
  if (snap) publish(*snap);
  return snap;
}

void Publisher::attach(server::Server& server) {
  set_latency_bounds(server.stats().latency.bounds());
  if (inner_) inner_->attach(server);
}

void Publisher::set_latency_bounds(std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_bounds_ = std::move(bounds);
}

std::uint64_t Publisher::publish(const compile::CompiledPolicySnapshot& snap) {
  obs::Span span("repl.publish");
  persist::ArenaWriter writer;
  persist::SnapshotCodec::write(snap, writer);
  auto image = std::make_shared<std::vector<std::byte>>(writer.build_image(snap.build_id()));

  // Content identity: the header-internal checksum excludes the fixed
  // header (and with it the per-process build_id), so a reload that
  // recompiled identical dumps produces the same checksum and is a no-op
  // for the fleet.
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, image->data() + persist::kChecksumOffset, sizeof(checksum));
  const std::uint64_t digest = persist::digest64(std::span<const std::byte>(*image));

  std::lock_guard<std::mutex> lock(mu_);
  if (info_.gen != 0 && info_.checksum == checksum && info_.size == image->size()) {
    return info_.gen;  // same content: keep the generation, drop the copy
  }
  info_.gen += 1;
  info_.build_id = snap.build_id();
  info_.checksum = checksum;
  info_.digest = digest;
  info_.size = image->size();
  info_.chunk_bytes = chunk_bytes_;
  image_ = std::move(image);
  publishes_total().inc();
  obs::log_info("repl", "generation published",
                {{"gen", info_.gen},
                 {"build_id", info_.build_id},
                 {"bytes", info_.size},
                 {"checksum", hex64(checksum)}});
  return info_.gen;
}

std::string Publisher::handle(std::string_view body) {
  if (body.empty()) return query::frame_response(status_payload());
  if (body == ".info") return handle_info();
  if (body.substr(0, 7) == ".fetch ") return handle_fetch(body.substr(7));
  if (body.substr(0, 6) == ".beat ") return handle_beat(body.substr(6));
  return "F unknown repl verb\n";
}

GenerationInfo Publisher::current_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return info_;
}

std::string Publisher::handle_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (info_.gen == 0) return "D\n";
  return query::frame_response(render_info(info_));
}

std::string Publisher::handle_fetch(std::string_view args) {
  const std::vector<std::string_view> fields = split_fields(args);
  if (fields.size() != 3) return "F fetch expects <gen> <offset> <length>\n";
  const auto gen = util::parse_u64(fields[0]);
  const auto off = util::parse_u64(fields[1]);
  const auto len = util::parse_u64(fields[2]);
  if (!gen || !off || !len) return "F fetch expects numeric <gen> <offset> <length>\n";

  std::shared_ptr<const std::vector<std::byte>> image;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (info_.gen == 0) return "F nothing published yet\n";
    if (*gen != info_.gen) {
      return "F generation " + std::to_string(*gen) + " is not current\n";
    }
    image = image_;
  }
  if (*off >= image->size() || *len == 0 || *len > chunk_bytes_ ||
      *len > image->size() - *off) {
    return "F bad range\n";
  }
  // Binary chunk: frame by hand. frame_response would append a newline to
  // the payload, corrupting the byte count an edge reassembles by.
  std::string out;
  out.reserve(*len + 32);
  out += "A" + std::to_string(*len) + "\n";
  out.append(reinterpret_cast<const char*>(image->data() + *off), *len);
  out += "C\n";
  chunks_served_total().inc();
  bytes_served_total().inc(*len);
  return out;
}

std::string Publisher::handle_beat(std::string_view args) {
  const std::vector<std::string_view> fields = split_fields(args);
  if (fields.size() != 4 && fields.size() != 5) {
    return "F beat expects <id> <gen> <health> <qps> [digest]\n";
  }
  const auto gen = util::parse_u64(fields[1]);
  if (!gen) return "F beat expects a numeric generation\n";
  const std::string qps_text(fields[3]);
  char* end = nullptr;
  const double qps = std::strtod(qps_text.c_str(), &end);
  if (end == qps_text.c_str() || *end != '\0' || qps < 0) {
    return "F beat expects a numeric qps\n";
  }
  std::optional<MetricDigest> digest;
  if (fields.size() == 5) {
    digest = parse_digest(fields[4]);
    if (!digest) return "F beat digest is malformed\n";
  }

  std::lock_guard<std::mutex> lock(mu_);
  EdgeRecord& rec = edges_[std::string(fields[0])];
  rec.gen = *gen;
  rec.health = std::string(fields[2]);
  rec.qps = qps;
  rec.last_seen = std::chrono::steady_clock::now();
  // A legacy beat after a digest-bearing one keeps the old digest: losing
  // the counters because one beat was minimal would dent fleet totals.
  if (digest) rec.digest = std::move(digest);
  beats_received_total().inc();
  return "C\n";
}

std::string Publisher::status_payload() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "role: origin\n";
  out += "gen: " + std::to_string(info_.gen) + "\n";
  if (info_.gen != 0) {
    out += "checksum: " + hex64(info_.checksum) + "\n";
    out += "size: " + std::to_string(info_.size) + "\n";
  }
  out += "edges: " + std::to_string(edges_.size()) + "\n";
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [id, rec] : edges_) {
    const auto age =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - rec.last_seen);
    char line[256];
    std::snprintf(line, sizeof(line), "edge: %s gen=%llu health=%s qps=%.1f age-ms=%lld\n",
                  id.c_str(), static_cast<unsigned long long>(rec.gen), rec.health.c_str(),
                  rec.qps, static_cast<long long>(age.count()));
    out += line;
  }
  return out;
}

std::string Publisher::stats_line() const {
  const std::string inner = inner_ ? inner_->stats_line() : std::string();
  std::lock_guard<std::mutex> lock(mu_);
  return "repl: role=origin gen=" + std::to_string(info_.gen) +
         " edges=" + std::to_string(edges_.size()) + (inner.empty() ? "" : "\n" + inner);
}

// ---------------------------------------------------------------------------
// Fleet aggregation (`!fleet` and the merged Prometheus exposition)
// ---------------------------------------------------------------------------

/// One locked pass over the edge table: per-edge rows with staleness
/// resolved, plus merged totals and a merged latency histogram over the
/// non-stale digest-bearing edges. Both renderers consume this so the text
/// page and the Prometheus page can never disagree about who is stale.
struct Publisher::FleetView {
  struct Row {
    std::string id;
    EdgeRecord rec;
    std::int64_t age_ms = 0;
    bool stale = false;
    std::uint64_t p99_us = 0;  // this edge's own digest histogram
  };
  std::vector<Row> rows;  // map order: sorted by edge id, deterministic
  std::size_t stale_count = 0;
  std::uint64_t origin_gen = 0;
  // Merged over non-stale edges with a digest:
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t drops = 0;
  double qps = 0.0;
  obs::Histogram::Snapshot merged;  // layout-matching edges only
  std::vector<double> bounds;
};

Publisher::FleetView Publisher::fleet_view() const {
  FleetView view;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  view.origin_gen = info_.gen;
  view.bounds = latency_bounds_;
  view.merged.buckets.assign(view.bounds.size() + 1, 0);
  for (const auto& [id, rec] : edges_) {
    FleetView::Row row;
    row.id = id;
    row.rec = rec;
    row.age_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - rec.last_seen)
            .count();
    row.stale = now - rec.last_seen >= stale_after(rec);
    if (rec.digest &&
        rec.digest->latency_buckets.size() == view.bounds.size() + 1) {
      obs::Histogram::Snapshot own;
      own.buckets = rec.digest->latency_buckets;
      own.count = rec.digest->latency_count;
      row.p99_us = static_cast<std::uint64_t>(
          own.percentile(99, view.bounds) * 1e6 + 0.5);
    }
    if (row.stale) {
      ++view.stale_count;
    } else if (rec.digest) {
      view.queries += rec.digest->queries_total;
      view.hits += rec.digest->cache_hits;
      view.misses += rec.digest->cache_misses;
      view.drops += rec.digest->recorder_drops;
      view.qps += rec.qps;
      if (rec.digest->latency_buckets.size() == view.merged.buckets.size()) {
        for (std::size_t i = 0; i < view.merged.buckets.size(); ++i) {
          view.merged.buckets[i] += rec.digest->latency_buckets[i];
        }
        view.merged.count += rec.digest->latency_count;
        view.merged.sum +=
            static_cast<double>(rec.digest->latency_sum_micros) / 1e6;
      }
    }
    view.rows.push_back(std::move(row));
  }
  return view;
}

std::string Publisher::fleet_payload() const {
  const FleetView view = fleet_view();
  std::string out;
  out.reserve(256 + view.rows.size() * 160);
  out += "role: origin\n";
  out += "gen: " + std::to_string(view.origin_gen) + "\n";
  out += "edges: " + std::to_string(view.rows.size()) +
         " stale=" + std::to_string(view.stale_count) + "\n";
  // `lookups` and `evaluations` are derived, not separately summed, so the
  // identity lookups == hits + evaluations holds in every rendered page —
  // it is what the chaos harness reconciles against per-edge `!stats`.
  char line[320];
  std::snprintf(line, sizeof(line),
                "totals: queries=%llu lookups=%llu hits=%llu evaluations=%llu "
                "recorder-drops=%llu\n",
                static_cast<unsigned long long>(view.queries),
                static_cast<unsigned long long>(view.hits + view.misses),
                static_cast<unsigned long long>(view.hits),
                static_cast<unsigned long long>(view.misses),
                static_cast<unsigned long long>(view.drops));
  out += line;
  const std::uint64_t p50_us = static_cast<std::uint64_t>(
      view.merged.percentile(50, view.bounds) * 1e6 + 0.5);
  const std::uint64_t p99_us = static_cast<std::uint64_t>(
      view.merged.percentile(99, view.bounds) * 1e6 + 0.5);
  std::snprintf(line, sizeof(line),
                "fleet: qps=%.1f p50-us=%llu p99-us=%llu samples=%llu\n", view.qps,
                static_cast<unsigned long long>(p50_us),
                static_cast<unsigned long long>(p99_us),
                static_cast<unsigned long long>(view.merged.count));
  out += line;
  for (const FleetView::Row& row : view.rows) {
    const MetricDigest* d = row.rec.digest ? &*row.rec.digest : nullptr;
    std::snprintf(line, sizeof(line),
                  "edge: %s gen=%llu health=%s qps=%.1f queries=%llu hits=%llu "
                  "evaluations=%llu p99-us=%llu recorder-drops=%llu age-ms=%lld "
                  "stale=%d\n",
                  row.id.c_str(), static_cast<unsigned long long>(row.rec.gen),
                  row.rec.health.c_str(), row.rec.qps,
                  static_cast<unsigned long long>(d ? d->queries_total : 0),
                  static_cast<unsigned long long>(d ? d->cache_hits : 0),
                  static_cast<unsigned long long>(d ? d->cache_misses : 0),
                  static_cast<unsigned long long>(row.p99_us),
                  static_cast<unsigned long long>(d ? d->recorder_drops : 0),
                  static_cast<long long>(row.age_ms), row.stale ? 1 : 0);
    out += line;
  }
  return out;
}

std::string Publisher::fleet_prometheus() const {
  const FleetView view = fleet_view();
  std::string out;
  out.reserve(512 + view.rows.size() * 512);
  const auto emit_family = [&](const char* name, const char* help,
                               const char* type, auto&& per_edge) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    for (const FleetView::Row& row : view.rows) {
      out += name;
      out += "{edge=\"" + escape_label(row.id) + "\"} ";
      out += per_edge(row);
      out += '\n';
    }
  };
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };

  out += "# HELP rpslyzer_fleet_edges Edges known to this origin\n";
  out += "# TYPE rpslyzer_fleet_edges gauge\n";
  out += "rpslyzer_fleet_edges " + std::to_string(view.rows.size()) + "\n";
  out += "# HELP rpslyzer_fleet_edges_stale Edges whose last heartbeat is older "
         "than four heartbeat periods\n";
  out += "# TYPE rpslyzer_fleet_edges_stale gauge\n";
  out += "rpslyzer_fleet_edges_stale " + std::to_string(view.stale_count) + "\n";
  emit_family("rpslyzer_fleet_queries_total",
              "Cumulative queries reported by each edge's heartbeat digest",
              "counter", [&](const FleetView::Row& r) {
                return u64(r.rec.digest ? r.rec.digest->queries_total : 0);
              });
  emit_family("rpslyzer_fleet_cache_hits_total",
              "Response-cache hits reported by each edge", "counter",
              [&](const FleetView::Row& r) {
                return u64(r.rec.digest ? r.rec.digest->cache_hits : 0);
              });
  emit_family("rpslyzer_fleet_cache_misses_total",
              "Response-cache misses (= evaluations) reported by each edge",
              "counter", [&](const FleetView::Row& r) {
                return u64(r.rec.digest ? r.rec.digest->cache_misses : 0);
              });
  emit_family("rpslyzer_fleet_recorder_dropped_total",
              "Flight-recorder ring overwrites reported by each edge", "counter",
              [&](const FleetView::Row& r) {
                return u64(r.rec.digest ? r.rec.digest->recorder_drops : 0);
              });
  emit_family("rpslyzer_fleet_generation",
              "Snapshot generation each edge reports serving", "gauge",
              [&](const FleetView::Row& r) { return u64(r.rec.gen); });
  emit_family("rpslyzer_fleet_qps",
              "Query rate each edge reported in its last heartbeat", "gauge",
              [&](const FleetView::Row& r) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.1f", r.rec.qps);
                return std::string(buf);
              });
  emit_family("rpslyzer_fleet_stale",
              "1 when the edge's last heartbeat is past its staleness threshold",
              "gauge",
              [&](const FleetView::Row& r) { return u64(r.stale ? 1 : 0); });

  // Merged fleet latency histogram (non-stale, layout-matching edges).
  out += "# HELP rpslyzer_fleet_latency_seconds Query latency merged across "
         "non-stale edges\n";
  out += "# TYPE rpslyzer_fleet_latency_seconds histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < view.bounds.size(); ++i) {
    cumulative += view.merged.buckets[i];
    out += "rpslyzer_fleet_latency_seconds_bucket{le=\"" +
           format_bound(view.bounds[i]) + "\"} " + std::to_string(cumulative) +
           "\n";
  }
  out += "rpslyzer_fleet_latency_seconds_bucket{le=\"+Inf\"} " +
         std::to_string(view.merged.count) + "\n";
  char sum_line[64];
  std::snprintf(sum_line, sizeof(sum_line), "%.6f", view.merged.sum);
  out += "rpslyzer_fleet_latency_seconds_sum " + std::string(sum_line) + "\n";
  out += "rpslyzer_fleet_latency_seconds_count " +
         std::to_string(view.merged.count) + "\n";
  return out;
}

}  // namespace rpslyzer::repl
