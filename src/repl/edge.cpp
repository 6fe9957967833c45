#include "rpslyzer/repl/edge.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/persist/arena.hpp"
#include "rpslyzer/persist/snapshot_io.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/util/backoff.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::repl {

namespace {

namespace fp = util::failpoint;

obs::Counter& syncs_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_syncs_total", "Completed edge sync cycles (poll + any download)");
  return c;
}

obs::Counter& sync_failures_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_sync_failures_total",
      "Edge sync cycles aborted by connection, protocol, or verification errors");
  return c;
}

obs::Counter& fetch_chunks_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_fetch_chunks_total", "Replication chunks fetched by edges");
  return c;
}

obs::Counter& bytes_fetched_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_bytes_fetched_total", "Replication payload bytes fetched by edges");
  return c;
}

obs::Counter& verify_failures_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_verify_failures_total",
      "Downloaded generations refused for a whole-file digest mismatch");
  return c;
}

obs::Counter& activations_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_activations_total", "Generations verified and swapped in by edges");
  return c;
}

obs::Counter& resumes_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_resumes_total", "Interrupted transfers resumed at their last offset");
  return c;
}

obs::Counter& heartbeats_sent_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_heartbeats_sent_total", "Heartbeats delivered to the origin");
  return c;
}

obs::Counter& heartbeat_failures_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_repl_heartbeat_failures_total",
      "Heartbeats dropped by the repl.heartbeat failpoint or a dead origin connection");
  return c;
}

/// Transfer-layer failure: drops the connection and backs off, but never
/// touches the generation currently being served.
class SyncError : public std::runtime_error {
 public:
  explicit SyncError(const std::string& what) : std::runtime_error(what) {}
};

/// A parsed framed response off the origin connection.
struct Reply {
  char kind = 'F';      // 'A', 'C', 'D', or 'F'
  std::string payload;  // A: exact payload bytes; F: error text
};

Reply parse_reply(const std::string& resp) {
  if (resp == "C\n") return {'C', {}};
  if (resp == "D\n") return {'D', {}};
  if (!resp.empty() && resp.front() == 'F') {
    std::string msg = resp.substr(1);
    if (!msg.empty() && msg.front() == ' ') msg.erase(0, 1);
    if (!msg.empty() && msg.back() == '\n') msg.pop_back();
    return {'F', std::move(msg)};
  }
  if (!resp.empty() && resp.front() == 'A') {
    const std::size_t nl = resp.find('\n');
    if (nl != std::string::npos) {
      // Client::read_response already sized the buffer off this length
      // field, so the arithmetic below cannot overrun.
      const std::size_t len = resp.size() - nl - 3;  // minus "A..\n" and "C\n"
      return {'A', resp.substr(nl + 1, len)};
    }
  }
  throw SyncError("malformed framed response from origin");
}

std::string errno_message(const char* what, const std::filesystem::path& path) {
  return std::string(what) + " " + path.string() + ": " + std::strerror(errno);
}

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  Fd fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) throw SyncError(errno_message("cannot open", path));
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) throw SyncError(errno_message("cannot stat", path));
  std::vector<std::byte> out(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd.fd, out.data() + done, out.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SyncError(errno_message("cannot read", path));
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  out.resize(done);
  return out;
}

/// What a heartbeat reports for the daemon serving this edge's snapshot.
LocalState server_state(const server::Server& daemon) {
  const server::ServerStats::Snapshot snap = daemon.stats().snapshot();
  const server::CacheStats cache = daemon.cache_stats();
  return {.health = server::to_string(daemon.health().state),
          .queries_total = snap.queries_total,
          .cache_hits = cache.hits,
          .cache_misses = cache.misses,
          .recorder_drops = daemon.flight().dropped(),
          .latency_count = snap.latency.count,
          .latency_sum_micros = static_cast<std::uint64_t>(snap.latency.sum * 1e6 + 0.5),
          .latency_buckets = snap.latency.buckets};
}

}  // namespace

ReplicationClient::ReplicationClient(EdgeConfig config)
    : config_(std::move(config)),
      seed_(config_.jitter_seed != 0 ? config_.jitter_seed
                                     : persist::digest64(config_.edge_id)) {
  std::filesystem::create_directories(config_.state_dir);
}

ReplicationClient::~ReplicationClient() { stop(); }

void ReplicationClient::set_activation_callback(std::function<void(const Current&)> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  on_activate_ = std::move(cb);
}

void ReplicationClient::set_local_state(std::function<LocalState()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  local_state_ = std::move(fn);
}

bool ReplicationClient::recover_last_good() {
  const std::filesystem::path rps = config_.state_dir / "current.rps";
  const std::filesystem::path meta = config_.state_dir / "current.meta";
  std::error_code ec;
  if (!std::filesystem::exists(rps, ec) || !std::filesystem::exists(meta, ec)) return false;

  Current cur;
  cur.path = rps;
  {
    std::ifstream in(meta);
    std::string line;
    unsigned seen = 0;
    while (std::getline(in, line)) {
      const std::size_t colon = line.find(": ");
      if (colon == std::string::npos) continue;
      const std::string key = line.substr(0, colon);
      const std::string value = line.substr(colon + 2);
      if (key == "gen") {
        cur.gen = std::strtoull(value.c_str(), nullptr, 10);
        seen |= 1;
      } else if (key == "checksum") {
        if (auto v = parse_hex64(value)) cur.checksum = *v, seen |= 2;
      } else if (key == "digest") {
        if (auto v = parse_hex64(value)) cur.digest = *v, seen |= 4;
      }
    }
    if (seen != 7 || cur.gen == 0) return false;
  }

  // The snapshot must still hash to what the meta file promised — a torn
  // write during the crash we are recovering from must not get served.
  try {
    const std::vector<std::byte> bytes = read_file(rps);
    if (persist::digest64(std::span<const std::byte>(bytes)) != cur.digest) {
      obs::log_warn("repl", "last-good snapshot digest mismatch; discarding",
                    {{"path", rps.string()}});
      return false;
    }
  } catch (const SyncError&) {
    return false;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = cur;
    activated_ = true;
  }
  cv_.notify_all();
  obs::log_info("repl", "recovered last-good generation",
                {{"gen", cur.gen}, {"path", rps.string()}});
  return true;
}

std::shared_ptr<const compile::CompiledPolicySnapshot> ReplicationClient::load() {
  const std::optional<Current> cur = current();
  if (!cur) return nullptr;
  auto snap = persist::open_snapshot(cur->path, "repl:" + std::to_string(cur->gen));
  std::lock_guard<std::mutex> lock(mu_);
  loaded_gen_ = cur->gen;
  return snap;
}

void ReplicationClient::attach(server::Server& server) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    server_ = &server;
    // An activation since the server's first load() found no server to
    // tell; without this the edge serves it only after the next publish.
    if (current_ && current_->gen != loaded_gen_) server.request_reload();
  }
  start();
}

std::optional<std::string> ReplicationClient::repl(std::string_view body) {
  if (!body.empty()) return "F this instance is not an origin\n";
  return query::frame_response(status_payload());
}

void ReplicationClient::start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
  }
  thread_ = std::thread([this] { run(); });
}

void ReplicationClient::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    server_ = nullptr;
    if (!running_ && !thread_.joinable()) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  drop_connection();
}

bool ReplicationClient::wait_for_snapshot(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  // Gate on activated_, not current_: current_ is published before the
  // activation callback runs (the callback reads current()), and waiters
  // must not observe a generation whose activation side effects — the
  // daemon reload request above all — are still in flight.
  cv_.wait_for(lock, timeout, [&] { return activated_ || !running_; });
  return current_.has_value();
}

std::optional<Current> ReplicationClient::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void ReplicationClient::run() {
  using clock = std::chrono::steady_clock;
  auto next_poll = clock::now();  // first sync fires immediately
  auto next_beat = clock::now() + heartbeat_interval(config_.heartbeat_period, seed_, beat_tick_++);

  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    const auto wake = std::min(next_poll, next_beat);
    cv_.wait_until(lock, wake, [&] { return !running_; });
    if (!running_) break;
    const auto now = clock::now();

    if (now >= next_poll) {
      lock.unlock();
      bool ok = false;
      try {
        sync_once();
        ok = true;
      } catch (const std::exception& e) {
        drop_connection();
        origin_up_.store(false, std::memory_order_relaxed);
        sync_failures_.fetch_add(1, std::memory_order_relaxed);
        sync_failures_total().inc();
        obs::log_warn("repl", "sync failed",
                      {{"edge", config_.edge_id}, {"error", e.what()}});
      }
      lock.lock();
      if (ok) {
        failures_ = 0;
        next_poll = clock::now() + config_.poll_interval;
      } else {
        const auto delay = util::backoff(failures_, config_.backoff_initial,
                                         config_.backoff_max,
                                         seed_ ^ util::kReconnectStream);
        ++failures_;
        next_poll = clock::now() + delay;
      }
    }

    if (now >= next_beat && running_) {
      lock.unlock();
      try {
        heartbeat_once();
      } catch (const std::exception& e) {
        drop_connection();
        origin_up_.store(false, std::memory_order_relaxed);
        heartbeat_failures_.fetch_add(1, std::memory_order_relaxed);
        heartbeat_failures_total().inc();
        obs::log_warn("repl", "heartbeat failed",
                      {{"edge", config_.edge_id}, {"error", e.what()}});
      }
      lock.lock();
      next_beat =
          clock::now() + heartbeat_interval(config_.heartbeat_period, seed_, beat_tick_++);
    }
  }
}

bool ReplicationClient::ensure_connected() {
  if (conn_) return true;
  std::string error;
  auto conn = server::Client::connect(config_.origin_host, config_.origin_port, &error);
  if (!conn) {
    throw SyncError("cannot reach origin " + config_.origin_host + ":" +
                    std::to_string(config_.origin_port) + ": " + error);
  }
  conn_ = std::move(*conn);
  return true;
}

void ReplicationClient::drop_connection() { conn_.reset(); }

std::optional<GenerationInfo> ReplicationClient::fetch_info() {
  if (!conn_->send_line("!repl.info")) throw SyncError("origin connection lost (info)");
  const auto resp = conn_->read_response();
  if (!resp) throw SyncError("origin closed the connection (info)");
  const Reply reply = parse_reply(*resp);
  if (reply.kind == 'D') return std::nullopt;  // nothing published yet
  if (reply.kind == 'F') throw SyncError("origin refused info: " + reply.payload);
  if (reply.kind != 'A') throw SyncError("unexpected info response");
  auto info = parse_info(reply.payload);
  if (!info) throw SyncError("malformed generation announcement");
  return info;
}

void ReplicationClient::sync_once() {
  obs::Span span("repl.sync");
  ensure_connected();
  const std::optional<GenerationInfo> info = fetch_info();
  origin_up_.store(true, std::memory_order_relaxed);
  if (!info) return;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ && current_->checksum == info->checksum) {
      // Same content under a new label (typically an origin restart that
      // reset its generation counter): adopt the label, skip the bytes.
      if (current_->gen != info->gen) {
        current_->gen = info->gen;
        write_meta(*current_);
      }
      syncs_.fetch_add(1, std::memory_order_relaxed);
      syncs_total().inc();
      return;
    }
  }

  fetch_generation(*info);
  verify_and_activate(*info);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  syncs_total().inc();
}

void ReplicationClient::fetch_generation(const GenerationInfo& info) {
  obs::Span span("repl.fetch");
  const std::filesystem::path partial_path = config_.state_dir / "incoming.partial";

  std::uint64_t offset = 0;
  if (partial_ && partial_->checksum == info.checksum && partial_->digest == info.digest &&
      partial_->size == info.size && partial_->offset > 0) {
    std::error_code ec;
    const auto on_disk = std::filesystem::file_size(partial_path, ec);
    if (!ec && on_disk == partial_->offset) {
      offset = partial_->offset;
      resumes_.fetch_add(1, std::memory_order_relaxed);
      resumes_total().inc();
      obs::log_info("repl", "resuming interrupted transfer",
                    {{"edge", config_.edge_id}, {"gen", info.gen}, {"offset", offset}});
    }
  }
  if (offset == 0) partial_ = Partial{info.checksum, info.digest, info.size, 0};

  Fd fd{::open(partial_path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644)};
  if (fd.fd < 0) throw SyncError(errno_message("cannot create", partial_path));
  if (::ftruncate(fd.fd, static_cast<off_t>(offset)) != 0 ||
      ::lseek(fd.fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    throw SyncError(errno_message("cannot position", partial_path));
  }

  const std::uint64_t chunk = std::max<std::uint64_t>(info.chunk_bytes, 4096);
  while (offset < info.size) {
    const std::uint64_t len = std::min<std::uint64_t>(chunk, info.size - offset);
    if (!conn_->send_line("!repl.fetch " + std::to_string(info.gen) + " " +
                          std::to_string(offset) + " " + std::to_string(len))) {
      throw SyncError("origin connection lost (fetch)");
    }
    const auto resp = conn_->read_response();
    if (!resp) throw SyncError("origin closed the connection mid-transfer");
    const Reply reply = parse_reply(*resp);
    if (reply.kind == 'F') throw SyncError("origin refused chunk: " + reply.payload);
    if (reply.kind != 'A' || reply.payload.size() != len) {
      throw SyncError("short chunk from origin");
    }

    // Edge-side fault injection: an error abandons this sync (resumable);
    // a truncation keeps only a prefix of the chunk and tears the
    // transfer, exercising the partial-resume path end to end.
    std::size_t keep = reply.payload.size();
    bool torn = false;
    if (auto hit = fp::hit("repl.fetch"); hit.is_error()) {
      throw SyncError("repl.fetch failpoint: " + hit.message);
    } else if (hit.is_truncate()) {
      keep = std::min<std::size_t>(keep, hit.truncate_at);
      torn = true;
    }

    std::size_t done = 0;
    while (done < keep) {
      const ssize_t n = ::write(fd.fd, reply.payload.data() + done, keep - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw SyncError(errno_message("cannot write", partial_path));
      }
      done += static_cast<std::size_t>(n);
    }
    offset += keep;
    partial_->offset = offset;
    fetch_chunks_total().inc();
    bytes_fetched_total().inc(keep);
    if (torn) throw SyncError("transfer torn by repl.fetch failpoint");
  }
  if (::fsync(fd.fd) != 0) throw SyncError(errno_message("cannot sync", partial_path));
}

void ReplicationClient::verify_and_activate(const GenerationInfo& info) {
  obs::Span span("repl.activate");
  const std::filesystem::path partial_path = config_.state_dir / "incoming.partial";
  const std::filesystem::path rps = config_.state_dir / "current.rps";

  const std::vector<std::byte> bytes = read_file(partial_path);
  std::uint64_t digest = persist::digest64(std::span<const std::byte>(bytes));
  if (auto hit = fp::hit("repl.verify"); hit.is_error()) digest = ~digest;
  if (bytes.size() != info.size || digest != info.digest) {
    // A transfer that completed but does not hash out is poison, not a
    // partial: delete it so the next poll starts clean.
    verify_failures_.fetch_add(1, std::memory_order_relaxed);
    verify_failures_total().inc();
    partial_.reset();
    std::error_code ec;
    std::filesystem::remove(partial_path, ec);
    throw SyncError("downloaded generation failed digest verification");
  }

  if (auto hit = fp::hit("repl.activate"); hit.is_error()) {
    // Verified bytes stay on disk; the next sync resumes at offset==size
    // and goes straight back to activation.
    throw SyncError("repl.activate failpoint: " + hit.message);
  }

  if (::rename(partial_path.c_str(), rps.c_str()) != 0) {
    throw SyncError(errno_message("cannot activate", rps));
  }
  partial_.reset();

  Current cur;
  cur.path = rps;
  cur.gen = info.gen;
  cur.checksum = info.checksum;
  cur.digest = info.digest;
  write_meta(cur);

  // Publish current_ first (the activation callback and the server's
  // reload read current()), run the callback, request the reload, and only
  // then mark the activation complete for wait_for_snapshot() waiters — a
  // woken waiter must see those side effects, not race ahead of them.
  std::function<void(const Current&)> cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = cur;
    cb = on_activate_;
  }
  activations_.fetch_add(1, std::memory_order_relaxed);
  activations_total().inc();
  obs::log_info("repl", "generation activated",
                {{"edge", config_.edge_id}, {"gen", cur.gen}, {"bytes", info.size}});
  if (cb) cb(cur);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (server_ != nullptr) server_->request_reload();
    activated_ = true;
  }
  cv_.notify_all();
}

void ReplicationClient::write_meta(const Current& cur) const {
  const std::filesystem::path meta = config_.state_dir / "current.meta";
  const std::filesystem::path tmp = meta.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "gen: " << cur.gen << "\n"
        << "checksum: " << hex64(cur.checksum) << "\n"
        << "digest: " << hex64(cur.digest) << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, meta, ec);
}

void ReplicationClient::heartbeat_once() {
  if (auto hit = fp::hit("repl.heartbeat"); hit.is_error()) {
    heartbeat_failures_.fetch_add(1, std::memory_order_relaxed);
    heartbeat_failures_total().inc();
    return;  // skipped, not a connection failure
  }

  LocalState state;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (local_state_) state = local_state_();
    else if (server_ != nullptr) state = server_state(*server_);
    if (current_) gen = current_->gen;
  }

  const auto now = std::chrono::steady_clock::now();
  double qps = 0.0;
  if (last_beat_time_.time_since_epoch().count() != 0 &&
      state.queries_total >= last_beat_queries_) {
    const std::chrono::duration<double> dt = now - last_beat_time_;
    if (dt.count() > 0) {
      qps = static_cast<double>(state.queries_total - last_beat_queries_) / dt.count();
    }
  }
  last_beat_time_ = now;
  last_beat_queries_ = state.queries_total;

  ensure_connected();
  // The digest token can outgrow a fixed buffer (one count per latency
  // bucket), so the beat is assembled as a string.
  char head[192];
  std::snprintf(head, sizeof(head), "!repl.beat %s %llu %s %.1f",
                config_.edge_id.c_str(), static_cast<unsigned long long>(gen),
                state.health.c_str(), qps);
  MetricDigest digest;
  digest.queries_total = state.queries_total;
  digest.cache_hits = state.cache_hits;
  digest.cache_misses = state.cache_misses;
  digest.recorder_drops = state.recorder_drops;
  digest.heartbeat_ms =
      static_cast<std::uint64_t>(std::max<std::int64_t>(config_.heartbeat_period.count(), 0));
  digest.latency_count = state.latency_count;
  digest.latency_sum_micros = state.latency_sum_micros;
  digest.latency_buckets = state.latency_buckets;
  const std::string beat = std::string(head) + " " + render_digest(digest);
  if (!conn_->send_line(beat)) throw SyncError("origin connection lost (beat)");
  const auto resp = conn_->read_response();
  if (!resp) throw SyncError("origin closed the connection (beat)");
  const Reply reply = parse_reply(*resp);
  if (reply.kind == 'F') throw SyncError("origin refused beat: " + reply.payload);
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
  heartbeats_sent_total().inc();
}

std::string ReplicationClient::status_payload() const {
  std::ostringstream out;
  out << "role: edge\n";
  out << "origin: " << config_.origin_host << ":" << config_.origin_port << "\n";
  out << "origin-up: " << (origin_up() ? 1 : 0) << "\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    out << "gen: " << (current_ ? current_->gen : 0) << "\n";
    if (current_) out << "checksum: " << hex64(current_->checksum) << "\n";
  }
  out << "syncs: " << syncs_.load(std::memory_order_relaxed) << "\n";
  out << "sync-failures: " << sync_failures_.load(std::memory_order_relaxed) << "\n";
  out << "activations: " << activations_.load(std::memory_order_relaxed) << "\n";
  out << "resumes: " << resumes_.load(std::memory_order_relaxed) << "\n";
  out << "verify-failures: " << verify_failures_.load(std::memory_order_relaxed) << "\n";
  out << "heartbeats: " << heartbeats_.load(std::memory_order_relaxed) << "\n";
  out << "heartbeat-failures: " << heartbeat_failures_.load(std::memory_order_relaxed)
      << "\n";
  return out.str();
}

std::string ReplicationClient::stats_line() const {
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_) gen = current_->gen;
  }
  return "repl: role=edge gen=" + std::to_string(gen) +
         " origin-up=" + (origin_up() ? std::string("1") : std::string("0"));
}

}  // namespace rpslyzer::repl
