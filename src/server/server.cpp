#include "rpslyzer/server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/obs/failpoint_bridge.hpp"
#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/util/backoff.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/strings.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer::server {

namespace {

namespace fp = util::failpoint;

constexpr std::uint64_t kListenTag = 1;
constexpr std::uint64_t kWakeTag = 2;
constexpr int kMaxEvents = 64;
constexpr auto kSweepGranularity = std::chrono::milliseconds(100);
constexpr std::uint32_t kMaxFlightDumps = 16;  // post-mortem files per run

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint32_t micros_between_u32(std::chrono::steady_clock::time_point a,
                                 std::chrono::steady_clock::time_point b) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  if (us <= 0) return 0;
  return static_cast<std::uint32_t>(
      std::min<long long>(us, std::numeric_limits<std::uint32_t>::max()));
}

std::string_view first_token(std::string_view line) {
  line = util::trim(line);
  return line.substr(0, line.find_first_of(" \t"));
}

}  // namespace

const char* to_string(Health h) noexcept {
  switch (h) {
    case Health::kHealthy:
      return "healthy";
    case Health::kLoading:
      return "loading";
    case Health::kDegraded:
      return "degraded";
  }
  return "?";
}

/// Per-connection state, touched only by the event-loop thread. Pipelined
/// queries are numbered at parse time (`next_seq`); workers may finish out
/// of order, so completed responses park in `ready` until every earlier
/// sequence number has been appended to the write buffer.
struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  std::uint64_t next_seq = 0;    // next sequence number to assign
  std::uint64_t next_write = 0;  // next sequence to append to `out`
  std::map<std::uint64_t, std::string> ready;
  std::size_t in_flight = 0;  // assigned but not yet delivered
  // Engine queries awaiting a worker, by enqueue time: the deadline sweep
  // answers overdue entries with "F timeout" and moves them to `timed_out`
  // so the worker's late completion is discarded instead of re-delivered.
  // Trace id + verb ride along so the sweep can file a complete flight
  // record (and name the offending trace in the post-mortem snapshot).
  struct PendingQuery {
    std::chrono::steady_clock::time_point t0;
    std::uint64_t trace_id = 0;
    char verb[16] = {};
  };
  std::map<std::uint64_t, PendingQuery> pending;
  std::set<std::uint64_t> timed_out;
  std::chrono::steady_clock::time_point last_activity;
  std::chrono::milliseconds idle_timeout{0};
  bool closing = false;      // no more reads; close once drained
  bool want_write = false;   // EPOLLOUT currently armed
  bool read_paused = false;  // EPOLLIN disarmed: output buffer over budget
  bool stalled = false;      // last send hit EAGAIN with bytes pending
  std::chrono::steady_clock::time_point stalled_since;
};

Server::Server(ServerConfig config, std::shared_ptr<GenerationSource> source)
    : config_(std::move(config)),
      source_(std::move(source)),
      cache_(config_.cache_capacity, config_.cache_shards),
      flight_(config_.flight_capacity),
      flight_epoch_(std::chrono::steady_clock::now()),
      stats_(registry_, config_.latency_bounds) {
  // Scrape-time mirrors: the cache keeps its own per-shard counters and the
  // health/generation state lives behind mutexes — a collector copies them
  // onto the page at render time instead of double-booking every update.
  registry_.register_collector([this](obs::CollectSink& sink) {
    const CacheStats cache = cache_.stats();
    sink.counter("rpslyzer_cache_hits_total", "Response-cache hits", {},
                 static_cast<double>(cache.hits));
    sink.counter("rpslyzer_cache_misses_total", "Response-cache misses", {},
                 static_cast<double>(cache.misses));
    sink.counter("rpslyzer_cache_evictions_total", "LRU-capacity evictions", {},
                 static_cast<double>(cache.evictions));
    sink.counter("rpslyzer_cache_invalidated_total",
                 "Stale-generation entries dropped on lookup", {},
                 static_cast<double>(cache.invalidated));
    sink.gauge("rpslyzer_cache_entries", "Cached responses currently held", {},
               static_cast<double>(cache.entries));
    sink.gauge("rpslyzer_cache_bytes", "Key + value payload bytes held", {},
               static_cast<double>(cache.bytes));

    sink.counter("rpslyzer_server_flight_records_total",
                 "Queries recorded by the flight recorder", {},
                 static_cast<double>(flight_.total()));
    sink.counter("rpslyzer_server_flight_dropped_total",
                 "Flight records overwritten by ring wraparound", {},
                 static_cast<double>(flight_.dropped()));

    const HealthStatus status = health();
    sink.gauge("rpslyzer_server_generation", "Current corpus generation", {},
               static_cast<double>(status.generation));
    sink.gauge("rpslyzer_server_health",
               "Daemon health (0 healthy, 1 loading, 2 degraded)", {},
               static_cast<double>(static_cast<int>(status.state)));
    sink.gauge("rpslyzer_server_uptime_seconds", "Seconds since start()", {},
               running() ? seconds_between(start_time_, std::chrono::steady_clock::now())
                         : 0.0);
  });
}

Server::~Server() { stop(); }

bool Server::setup_listener(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad bind address (IPv4 only): " + config_.bind_address;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    if (error) *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (error) *error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  return true;
}

bool Server::start(std::string* error) {
  if (started_) {
    if (error) *error = "server already started";
    return false;
  }
  std::shared_ptr<const compile::CompiledPolicySnapshot> corpus;
  try {
    corpus = source_->load();
  } catch (const std::exception& e) {
    if (error) *error = std::string("corpus load failed: ") + e.what();
    return false;
  }
  if (corpus == nullptr) {
    if (error) *error = "corpus load failed";
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(corpus_mu_);
    corpus_ = std::move(corpus);
    generation_.store(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_state_ = Health::kHealthy;
    health_reason_.clear();
    reload_attempts_ = 0;
    retry_armed_ = false;
    last_good_load_ = std::chrono::steady_clock::now();
  }
  if (!setup_listener(error)) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (error) *error = std::string("epoll/eventfd: ") + std::strerror(errno);
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;  // level-triggered: stays readable until drained
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stop_requested_.store(false, std::memory_order_relaxed);
  reload_requested_.store(false, std::memory_order_relaxed);
  loop_exited_.store(false, std::memory_order_relaxed);
  workers_stop_ = false;
  shutting_down_ = false;
  start_time_ = std::chrono::steady_clock::now();
  last_stats_log_ = start_time_;
  last_metrics_dump_ = start_time_;
  last_logged_queries_ = 0;
  obs::install_failpoint_observer();

  unsigned workers = config_.worker_threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  obs::log_info("server", "listening",
                {{"port", static_cast<unsigned>(port_)}, {"workers", workers}});
  worker_threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
  loop_thread_ = std::thread([this] { event_loop(); });
  started_ = true;
  running_.store(true, std::memory_order_release);
  source_->attach(*this);
  return true;
}

void Server::stop() {
  if (!started_) return;
  source_->detach();
  request_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : worker_threads_) {
    if (worker.joinable()) worker.join();
  }
  worker_threads_.clear();
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.clear();
  }
  started_ = false;
  running_.store(false, std::memory_order_release);
  stopped_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stopped_mu_);
  stopped_cv_.wait(lock, [this] {
    return loop_exited_.load(std::memory_order_acquire) || !running();
  });
}

void Server::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

void Server::request_reload() noexcept {
  reload_requested_.store(true, std::memory_order_release);
  wake();
}

void Server::wake() noexcept {
  if (wake_fd_ < 0) return;
  std::uint64_t one = 1;
  // write(2) is async-signal-safe; short/failed writes just mean the
  // eventfd counter is already non-zero, which still wakes the loop.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

Server::Snapshot Server::snapshot() const {
  std::lock_guard<std::mutex> lock(corpus_mu_);
  return Snapshot{corpus_, generation_.load(std::memory_order_relaxed)};
}

std::string Server::answer(const std::string& line, EvalInfo* info) {
  Snapshot snap = snapshot();
  if (info != nullptr) info->generation = snap.generation;
  const std::string key = normalize_query_key(line);
  std::optional<std::string> hit;
  {
    obs::Span cache_span("server.cache");
    hit = cache_.get(key, snap.generation);
  }
  if (hit) {
    if (info != nullptr) info->cache = 'h';
    return std::move(*hit);
  }
  if (info != nullptr) info->cache = 'm';
  const auto eval_start = std::chrono::steady_clock::now();
  std::string response;
  std::string_view trimmed = util::trim(line);
  if (!trimmed.empty() && trimmed.front() == '!') trimmed.remove_prefix(1);
  if (!trimmed.empty() && (trimmed.front() == 'v' || trimmed.front() == 'V')) {
    obs::Span eval_span("server.verify");
    response = verify_query(*snap.corpus, trimmed.substr(1));
  } else {
    obs::Span eval_span("server.eval");
    query::QueryEngine engine(*snap.corpus);
    response = engine.evaluate(line);
  }
  if (info != nullptr) {
    info->eval_us = static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - eval_start)
            .count());
  }
  cache_.put(key, snap.generation, response);
  return response;
}

std::string Server::verify_query(const compile::CompiledPolicySnapshot& corpus,
                                 std::string_view args) {
  // `!v <prefix> <as-path>` — verify one announced route against the
  // compiled policies and report per-hop verdicts. The AS path is listed
  // origin-last, exactly as it appears in a table dump.
  std::vector<std::string_view> tokens;
  for (std::string_view rest = args;;) {
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
    if (rest.empty()) break;
    std::size_t end = rest.find_first_of(" \t");
    tokens.push_back(rest.substr(0, end));
    if (end == std::string_view::npos) break;
    rest.remove_prefix(end);
  }
  if (tokens.size() < 3) {
    return "F usage: !v <prefix> <asn> <asn> [<asn>...]\n";
  }
  std::optional<net::Prefix> prefix = net::Prefix::parse(tokens.front());
  if (!prefix) {
    return "F bad prefix: " + std::string(tokens.front()) + "\n";
  }
  bgp::Route route;
  route.prefix = *prefix;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    std::optional<ir::Asn> asn = ir::parse_as_ref(tokens[i]);
    if (!asn) return "F bad AS number: " + std::string(tokens[i]) + "\n";
    route.path.push_back(*asn);
  }
  verify::Verifier verifier(
      std::shared_ptr<const compile::CompiledPolicySnapshot>(
          std::shared_ptr<void>(), &corpus));
  return query::frame_response(verifier.report(route));
}

std::string Server::do_reload() {
  reloads_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> serialize(reload_mu_);
  std::shared_ptr<const compile::CompiledPolicySnapshot> fresh;
  std::string why;
  try {
    fresh = source_->load();
  } catch (const std::exception& e) {
    why = e.what();
  } catch (...) {
    why = "unknown exception";
  }
  if (fresh == nullptr) {
    if (why.empty()) why = "loader returned no corpus";
    stats_.reload_failures.inc();
    unsigned attempts = 0;
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      health_state_ = Health::kDegraded;
      health_reason_ = why;
      attempts = ++reload_attempts_;
    }
    obs::log_error("server", "reload failed; serving stale generation",
                   {{"reason", why},
                    {"attempts", attempts},
                    {"generation", generation()}});
    reloads_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    // Quarantine-class event: snapshot the flight ring so the queries that
    // surrounded the failed reload are preserved for post-mortem.
    dump_flight_snapshot("degraded", obs::current_trace_id());
    wake();  // let the event loop arm the backoff retry promptly
    return "F reload failed: " + why + "\n";
  }
  // "memory" = full parse + compile; "cache:<key>" / "file:<path>" = served
  // by the persistence layer without recompiling.
  const std::string source = fresh->source();
  {
    std::lock_guard<std::mutex> lock(corpus_mu_);
    corpus_ = std::move(fresh);
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_state_ = Health::kHealthy;
    health_reason_.clear();
    reload_attempts_ = 0;
    last_good_load_ = std::chrono::steady_clock::now();
  }
  stats_.reloads.inc();
  obs::log_info("server", "corpus reloaded",
                {{"generation", generation()}, {"source", source}});
  reloads_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  wake();  // disarm any pending retry
  return "C\n";
}

HealthStatus Server::health() const {
  const auto now = std::chrono::steady_clock::now();
  HealthStatus status;
  std::lock_guard<std::mutex> lock(health_mu_);
  status.reload_in_flight = reloads_in_flight_.load(std::memory_order_acquire) > 0;
  status.state = health_state_;
  if (status.state == Health::kHealthy && status.reload_in_flight) {
    status.state = Health::kLoading;  // degraded wins over loading
  }
  status.reason = health_reason_;
  status.generation = generation_.load(std::memory_order_relaxed);
  status.generation_age =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - last_good_load_);
  status.reload_attempts = reload_attempts_;
  status.retry_armed = retry_armed_;
  if (retry_armed_ && retry_at_ > now) {
    status.next_retry =
        std::chrono::duration_cast<std::chrono::milliseconds>(retry_at_ - now);
  }
  return status;
}

std::string Server::health_payload() const {
  const HealthStatus status = health();
  std::string out = "status: ";
  out += to_string(status.state);
  out += "\ngeneration: " + std::to_string(status.generation);
  out += "\ngeneration-age-ms: " + std::to_string(status.generation_age.count());
  if (status.state == Health::kDegraded) {
    out += "\nreason: " + status.reason;
    out += "\nstale-generation-age-ms: " + std::to_string(status.generation_age.count());
    out += "\nreload-attempts: " + std::to_string(status.reload_attempts);
    if (status.retry_armed) {
      out += "\nnext-retry-ms: " + std::to_string(status.next_retry.count());
    }
  }
  out += std::string("\nreload-in-flight: ") + (status.reload_in_flight ? "1" : "0");
  const auto failpoints = fp::active();
  if (!failpoints.empty()) {
    out += "\nfailpoints:";
    for (const auto& [site, action] : failpoints) {
      out += " " + site + "=" + action;
    }
  }
  return out;
}

std::string Server::stats_payload() const {
  // One coherent snapshot of everything: `snapshot()` orders its reads so a
  // rendered page can never show errors > queries or admin > queries, no
  // matter how hard the worker pool is hammering the counters.
  const ServerStats::Snapshot snap = stats_.snapshot();
  const CacheStats cache = cache_.stats();
  const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start_time_);
  const Snapshot corpus_snap = snapshot();
  char buffer[2560];
  std::snprintf(
      buffer, sizeof(buffer),
      "generation: %llu\n"
      "snapshot: build-id=%llu interned-symbols=%zu trie-nodes=%zu source=%s\n"
      "health: %s\n"
      "uptime-ms: %lld\n"
      "connections: open=%lld accepted=%llu rejected=%llu idle-closed=%llu "
      "slow-closed=%llu\n"
      "queries: total=%llu errors=%llu admin=%llu timeouts=%llu\n"
      "cache: entries=%zu capacity=%zu hits=%llu misses=%llu hit-ratio=%.3f "
      "evictions=%llu invalidated=%llu\n"
      "latency-us: mean=%llu p50=%llu p99=%llu\n"
      "bytes: in=%llu out=%llu\n"
      "backpressure: reads-paused=%llu\n"
      "reloads: %llu\n"
      "reload-failures: %llu retries=%llu",
      static_cast<unsigned long long>(generation()),
      static_cast<unsigned long long>(
          corpus_snap.corpus ? corpus_snap.corpus->build_id() : 0),
      corpus_snap.corpus ? corpus_snap.corpus->interned_symbols() : std::size_t{0},
      corpus_snap.corpus ? corpus_snap.corpus->trie_nodes() : std::size_t{0},
      corpus_snap.corpus ? corpus_snap.corpus->source().c_str() : "none",
      to_string(health().state),
      static_cast<long long>(uptime.count()),
      static_cast<long long>(snap.connections_open),
      static_cast<unsigned long long>(snap.connections_accepted),
      static_cast<unsigned long long>(snap.connections_rejected),
      static_cast<unsigned long long>(snap.connections_idle_closed),
      static_cast<unsigned long long>(snap.slow_client_disconnects),
      static_cast<unsigned long long>(snap.queries_total),
      static_cast<unsigned long long>(snap.queries_errors),
      static_cast<unsigned long long>(snap.admin_queries),
      static_cast<unsigned long long>(snap.queries_timed_out), cache.entries,
      cache_.capacity(), static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), cache.hit_ratio(),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.invalidated),
      static_cast<unsigned long long>(snap.latency_mean_micros()),
      static_cast<unsigned long long>(
          snap.latency_percentile_micros(50, stats_.latency.bounds())),
      static_cast<unsigned long long>(
          snap.latency_percentile_micros(99, stats_.latency.bounds())),
      static_cast<unsigned long long>(snap.bytes_in),
      static_cast<unsigned long long>(snap.bytes_out),
      static_cast<unsigned long long>(snap.reads_paused),
      static_cast<unsigned long long>(snap.reloads),
      static_cast<unsigned long long>(snap.reload_failures),
      static_cast<unsigned long long>(snap.reload_retries));
  std::string out = buffer;
  if (const std::string extra = source_->stats_line(); !extra.empty()) out += "\n" + extra;
  return out;
}

std::string Server::metrics_payload() const {
  // Process-wide metrics (loader, query engine, failpoints) plus this
  // server's private page, in one Prometheus exposition document. The
  // source's block (origin fleet aggregation) arrives pre-rendered: its
  // families carry their own HELP/TYPE headers.
  return obs::to_prometheus({&obs::MetricsRegistry::global(), &registry_}) +
         source_->metrics_text();
}

void Server::maybe_dump_metrics(std::chrono::steady_clock::time_point now) {
  if (config_.metrics_snapshot_path.empty()) return;
  if (config_.metrics_snapshot_interval.count() <= 0) return;
  if (now - last_metrics_dump_ < config_.metrics_snapshot_interval) return;
  last_metrics_dump_ = now;
  // Write-then-rename so a scraper never reads a half-written page.
  const std::string tmp = config_.metrics_snapshot_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      obs::log_warn("server", "metrics snapshot write failed",
                    {{"path", config_.metrics_snapshot_path}});
      return;
    }
    out << metrics_payload();
  }
  if (std::rename(tmp.c_str(), config_.metrics_snapshot_path.c_str()) != 0) {
    obs::log_warn("server", "metrics snapshot rename failed",
                  {{"path", config_.metrics_snapshot_path}});
  }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

void Server::record_flight(std::uint64_t trace_id, std::string_view verb,
                           std::chrono::steady_clock::time_point t0,
                           std::uint32_t queue_us, const EvalInfo& info, char outcome,
                           std::uint32_t bytes) {
  if (!flight_.enabled()) return;
  const auto now = std::chrono::steady_clock::now();
  obs::FlightRecord record;
  record.trace_id = trace_id;
  const std::size_t verb_len = std::min(verb.size(), sizeof(record.verb) - 1);
  std::memcpy(record.verb, verb.data(), verb_len);
  record.end_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - flight_epoch_)
          .count());
  record.generation = info.generation != 0 ? info.generation : generation();
  record.queue_us = queue_us;
  record.eval_us = info.eval_us;
  const auto total =
      std::chrono::duration_cast<std::chrono::microseconds>(now - t0).count();
  record.total_us = static_cast<std::uint32_t>(
      std::min<long long>(total, std::numeric_limits<std::uint32_t>::max()));
  record.bytes = bytes;
  record.cache = info.cache;
  record.outcome = outcome;
  flight_.record(record);
  if (config_.slow_threshold.count() > 0 &&
      static_cast<std::uint64_t>(record.total_us) >=
          static_cast<std::uint64_t>(config_.slow_threshold.count()) * 1000) {
    flight_.note_slow(record);
    obs::log_warn("server", "slow query",
                  {{"trace", obs::trace_hex(trace_id)},
                   {"verb", std::string(verb.substr(0, verb_len))},
                   {"total_us", static_cast<std::uint64_t>(record.total_us)},
                   {"eval_us", static_cast<std::uint64_t>(record.eval_us)}});
  }
}

void Server::dump_flight_snapshot(const char* reason, std::uint64_t trace_id) {
  if (config_.metrics_snapshot_path.empty()) return;
  // Cap post-mortem files: a deadline storm should not fill the disk with
  // near-identical ring dumps.
  if (flight_dumps_.fetch_add(1, std::memory_order_relaxed) >= kMaxFlightDumps) return;
  std::string dir = config_.metrics_snapshot_path;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  const std::string path =
      dir + "/flight-" + reason + "-" + obs::trace_hex(trace_id) + ".log";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      obs::log_warn("server", "flight snapshot write failed", {{"path", path}});
      return;
    }
    out << "reason: " << reason << "\ntrace: " << obs::trace_hex(trace_id) << "\n";
    for (const obs::FlightRecord& record : flight_.snapshot()) {
      out << obs::format_flight_record(record) << "\n";
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    obs::log_warn("server", "flight snapshot rename failed", {{"path", path}});
    return;
  }
  obs::log_warn("server", "flight recorder snapshot written",
                {{"path", path},
                 {"trace", obs::trace_hex(trace_id)},
                 {"reason", std::string(reason)}});
}

std::string Server::slow_payload() const {
  const std::vector<obs::FlightRecord> slow = flight_.slow_snapshot();
  std::string out = "slow-queries: " + std::to_string(slow.size());
  out += " threshold-ms: " + std::to_string(config_.slow_threshold.count());
  out += "\nrecorder: total=" + std::to_string(flight_.total()) +
         " dropped=" + std::to_string(flight_.dropped()) +
         " capacity=" + std::to_string(flight_.capacity());
  for (const obs::FlightRecord& record : slow) {
    out += "\n";
    out += obs::format_flight_record(record);
  }
  return out;
}

std::string Server::trace_payload(std::uint64_t trace_id) const {
  const std::vector<obs::FlightRecord> records = flight_.find(trace_id);
  if (records.empty()) return {};
  std::string out = "trace: " + obs::trace_hex(trace_id);
  out += "\nrecords: " + std::to_string(records.size());
  for (const obs::FlightRecord& record : records) {
    char verb[sizeof(record.verb) + 1];
    std::memcpy(verb, record.verb, sizeof(record.verb));
    verb[sizeof(record.verb)] = '\0';
    const char* cache = record.cache == 'h'   ? "hit"
                        : record.cache == 'm' ? "miss"
                                              : "-";
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "\nverb: %s\noutcome: %c\ncache: %s\ngeneration: %llu\n"
                  "bytes: %u\nstage-queue-us: %u\nstage-eval-us: %u\n"
                  "stage-total-us: %u",
                  verb[0] != '\0' ? verb : "?", record.outcome, cache,
                  static_cast<unsigned long long>(record.generation), record.bytes,
                  record.queue_us, record.eval_us, record.total_us);
    out += buffer;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

void Server::enqueue_task(Task task) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    tasks_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void Server::worker_loop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return workers_stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // workers_stop_ with a drained queue
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    const std::uint64_t trace_id =
        task.trace_id != 0 ? task.trace_id : obs::next_trace_id();
    const std::uint32_t queue_us =
        micros_between_u32(task.t0, std::chrono::steady_clock::now());
    EvalInfo info;
    std::string response;
    {
      // Install the query's trace context for the whole evaluation: every
      // span recorded and every log line emitted below carries this id.
      obs::TraceContext trace_scope(trace_id);
      obs::Span span(task.reload ? "server.reload" : "server.query");
      // "server.dispatch": delay stalls this worker (driving the deadline
      // path); error fails the query without touching the engine. Reloads are
      // exempt so injected dispatch faults never masquerade as loader faults.
      if (const fp::Hit hit = fp::hit("server.dispatch");
          hit && hit.is_error() && !task.reload) {
        response = "F " + hit.message + "\n";
      } else {
        response = task.reload ? do_reload() : answer(task.line, &info);
      }
    }
    stats_.latency.observe(
        seconds_between(task.t0, std::chrono::steady_clock::now()));
    if (!response.empty() && response.front() == 'F') {
      stats_.queries_errors.inc();
    }
    record_flight(trace_id, task.reload ? "!reload" : first_token(task.line),
                  task.t0, queue_us, info,
                  response.empty() ? '?' : response.front(),
                  static_cast<std::uint32_t>(
                      std::min<std::size_t>(response.size(),
                                            std::numeric_limits<std::uint32_t>::max())));
    if (task.conn_id != 0) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(Completion{task.conn_id, task.seq, std::move(response)});
    }
    wake();
  }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void Server::event_loop() {
  epoll_event events[kMaxEvents];
  while (true) {
    const int timeout_ms = static_cast<int>(kSweepGranularity.count());
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        accept_ready();
      } else if (tag == kWakeTag) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      } else {
        handle_conn_event(tag, events[i].events);
      }
    }
    drain_completions();
    resume_paused_reads();
    if (reload_requested_.exchange(false, std::memory_order_acq_rel)) {
      // SIGHUP path: a detached reload with no connection to answer.
      enqueue_task(Task{0, 0, {}, std::chrono::steady_clock::now(), true});
    }
    const auto now = std::chrono::steady_clock::now();
    sweep_deadlines(now);
    sweep_stalled(now);
    sweep_idle(now);
    maybe_schedule_retry(now);
    maybe_log_stats(now);
    maybe_dump_metrics(now);
    if (stop_requested_.load(std::memory_order_acquire) && !shutting_down_) {
      begin_shutdown();
    }
    if (shutting_down_) {
      if (conns_.empty()) break;
      if (now >= drain_deadline_) {
        std::vector<std::uint64_t> ids;
        ids.reserve(conns_.size());
        for (const auto& [id, conn] : conns_) ids.push_back(id);
        for (std::uint64_t id : ids) destroy_conn(id);
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stopped_mu_);
    loop_exited_.store(true, std::memory_order_release);
  }
  stopped_cv_.notify_all();
}

void Server::begin_shutdown() {
  shutting_down_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() + config_.drain_timeout;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Stop reading; deliver what is in flight, then close. Iterate over a
  // snapshot of ids: close_if_drained can erase map entries.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    auto found = conns_.find(id);
    if (found == conns_.end()) continue;
    found->second->closing = true;
    close_if_drained(*found->second);
  }
}

void Server::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // EMFILE etc: drop and retry on the next readiness event
    }
    if (conns_.size() >= config_.max_connections) {
      stats_.connections_rejected.inc();
      obs::log_warn("server", "connection rejected: at max-connections",
                    {{"open", static_cast<std::uint64_t>(conns_.size())},
                     {"max", static_cast<std::uint64_t>(config_.max_connections)}});
      static constexpr char kRefusal[] = "F too many connections\n";
      [[maybe_unused]] ssize_t n =
          ::send(fd, kRefusal, sizeof(kRefusal) - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = std::chrono::steady_clock::now();
    conn->idle_timeout = config_.idle_timeout;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    stats_.connections_accepted.inc();
    stats_.connections_open.add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::handle_conn_event(std::uint64_t id, std::uint32_t events) {
  auto found = conns_.find(id);
  if (found == conns_.end()) return;
  Connection& conn = *found->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    destroy_conn(id);
    return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP)) read_ready(conn);
  // read_ready may destroy the connection on fatal errors.
  auto again = conns_.find(id);
  if (again == conns_.end()) return;
  if (events & EPOLLOUT) flush_writes(*again->second);
}

void Server::read_ready(Connection& conn) {
  if (const fp::Hit hit = fp::hit("server.read"); hit && hit.is_error()) {
    destroy_conn(conn.id);
    return;
  }
  char buffer[4096];
  bool saw_eof = false;
  while (true) {
    const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      stats_.bytes_in.inc(static_cast<std::uint64_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      if (!conn.closing) {
        conn.in.append(buffer, static_cast<std::size_t>(n));
        // Parse eagerly once the buffer crosses the line cap so an endless
        // unterminated line is refused here instead of accumulating for as
        // long as the peer keeps streaming.
        if (conn.in.size() > config_.max_line_bytes) parse_lines(conn);
      }
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    destroy_conn(conn.id);
    return;
  }
  parse_lines(conn);
  if (saw_eof) {
    // Half-close: the client is done sending; finish in-flight responses.
    conn.closing = true;
  }
  flush_writes(conn);
  // flush_writes closes drained connections itself.
}

void Server::parse_lines(Connection& conn) {
  std::size_t start = 0;
  while (!conn.closing) {
    const std::size_t newline = conn.in.find('\n', start);
    if (newline == std::string::npos) break;
    std::string_view line(conn.in.data() + start, newline - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = newline + 1;
    if (line.size() > config_.max_line_bytes) {
      ++conn.in_flight;
      deliver(conn, conn.next_seq++, "F query too long\n");
      conn.closing = true;
      break;
    }
    dispatch_line(conn, line);
  }
  conn.in.erase(0, start);
  if (!conn.closing && conn.in.size() > config_.max_line_bytes) {
    // An unterminated line beyond the cap cannot become a valid query, and
    // buffering more of it would hand the peer our memory.
    ++conn.in_flight;
    deliver(conn, conn.next_seq++, "F line too long\n");
    conn.closing = true;
    conn.in.clear();
  }
}

void Server::dispatch_line(Connection& conn, std::string_view raw) {
  std::string_view trimmed = util::trim(raw);
  if (trimmed == "!!") return;  // IRRd keep-alive toggle: no response
  std::string_view body = trimmed;
  if (!body.empty() && body.front() == '!') body.remove_prefix(1);

  // Optional trace-context prefix: `!id <hex> <query...>` lets the client
  // name the query's 64-bit trace id (loadgen does); the prefix is stripped
  // before dispatch so the cache key and the engine see the bare query.
  std::uint64_t trace_id = 0;
  bool bad_trace = false;
  if (body.size() >= 3 && (body[0] == 'i' || body[0] == 'I') &&
      (body[1] == 'd' || body[1] == 'D') && (body[2] == ' ' || body[2] == '\t')) {
    std::string_view rest = body.substr(3);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
    const std::size_t end = rest.find_first_of(" \t");
    const std::string_view token = rest.substr(0, end);
    if (!obs::parse_trace_hex(token, &trace_id) || trace_id == 0) {
      bad_trace = true;
    } else {
      trimmed = end == std::string_view::npos
                    ? std::string_view{}
                    : util::trim(rest.substr(end));
      body = trimmed;
      if (!body.empty() && body.front() == '!') body.remove_prefix(1);
    }
  }
  if (trace_id == 0) trace_id = obs::next_trace_id();

  const auto t0 = std::chrono::steady_clock::now();
  // Ordering note: the total is bumped before any admin/error subset counter,
  // which is what lets ServerStats::snapshot() guarantee subset <= total.
  stats_.queries_total.inc();

  // Inline verbs file their flight record here: zero queue/eval time, the
  // response's first byte as the outcome.
  const auto deliver_inline = [&](std::uint64_t seq, std::string_view verb,
                                  std::string response) {
    if (flight_.enabled()) {
      EvalInfo info;
      record_flight(trace_id, verb, t0, 0, info,
                    response.empty() ? '?' : response.front(),
                    static_cast<std::uint32_t>(std::min<std::size_t>(
                        response.size(), std::numeric_limits<std::uint32_t>::max())));
    }
    deliver(conn, seq, std::move(response));
  };

  if (util::iequals(body, "q")) {
    stats_.admin_queries.inc();
    conn.closing = true;  // close after pipelined predecessors flush
    return;
  }
  const std::uint64_t seq = conn.next_seq++;
  ++conn.in_flight;
  if (bad_trace) {
    stats_.queries_errors.inc();
    deliver(conn, seq, "F invalid trace id (expect 1-16 hex digits)\n");
    return;
  }
  if (util::iequals(body, "stats")) {
    stats_.admin_queries.inc();
    deliver_inline(seq, "!stats", query::frame_response(stats_payload()));
    return;
  }
  if (util::iequals(body, "metrics")) {
    stats_.admin_queries.inc();
    deliver_inline(seq, "!metrics", query::frame_response(metrics_payload()));
    return;
  }
  if (util::iequals(body, "health")) {
    stats_.admin_queries.inc();
    deliver_inline(seq, "!health", query::frame_response(health_payload()));
    return;
  }
  if (util::iequals(body, "slow")) {
    stats_.admin_queries.inc();
    deliver_inline(seq, "!slow", query::frame_response(slow_payload()));
    return;
  }
  if (body.size() >= 6 && util::iequals(body.substr(0, 5), "trace") &&
      (body[5] == ' ' || body[5] == '\t')) {
    stats_.admin_queries.inc();
    std::uint64_t wanted = 0;
    if (!obs::parse_trace_hex(util::trim(body.substr(6)), &wanted)) {
      deliver_inline(seq, "!trace", "F usage: !trace <hex-id>\n");
      return;
    }
    std::string payload = trace_payload(wanted);
    deliver_inline(seq, "!trace",
                   payload.empty() ? std::string("D\n")
                                   : query::frame_response(payload));
    return;
  }
  if (util::iequals(body, "fleet")) {
    stats_.admin_queries.inc();
    const std::optional<std::string> page = source_->fleet();
    deliver_inline(seq, "!fleet",
                   page ? query::frame_response(*page)
                        : std::string("F fleet aggregation not enabled\n"));
    return;
  }
  if (util::iequals(body, "reload")) {
    stats_.admin_queries.inc();
    enqueue_task(Task{conn.id, seq, {}, t0, true, trace_id});
    return;
  }
  if (body == "repl" || body.rfind("repl.", 0) == 0) {
    // Replication verbs are answered inline on the event-loop thread: the
    // source's answer is a pointer swap + memcpy (publisher) or a counter
    // read (edge), and routing them through answer() would push
    // multi-megabyte chunk responses into the query LRU.
    stats_.admin_queries.inc();
    std::optional<std::string> reply = source_->repl(body.substr(4));
    deliver(conn, seq, reply ? std::move(*reply) : std::string("F replication not enabled\n"));
    return;
  }
  if (body.size() >= 2 && (body.front() == 't' || body.front() == 'T') &&
      util::is_digit(body[1])) {
    stats_.admin_queries.inc();
    if (auto seconds = util::parse_u32(body.substr(1))) {
      conn.idle_timeout = std::chrono::seconds(*seconds);
      deliver_inline(seq, "!t", "C\n");
    } else {
      deliver_inline(seq, "!t", "F invalid timeout\n");
    }
    return;
  }
  if (config_.query_deadline.count() > 0) {
    Connection::PendingQuery pending{t0, trace_id, {}};
    const std::string_view verb = first_token(trimmed);
    std::memcpy(pending.verb, verb.data(),
                std::min(verb.size(), sizeof(pending.verb) - 1));
    conn.pending.emplace(seq, pending);
  }
  enqueue_task(Task{conn.id, seq, std::string(trimmed), t0, false, trace_id});
}

void Server::deliver(Connection& conn, std::uint64_t seq, std::string response) {
  --conn.in_flight;  // every deliver() pairs with one in_flight increment
  conn.ready.emplace(seq, std::move(response));
  while (true) {
    auto next = conn.ready.find(conn.next_write);
    if (next == conn.ready.end()) break;
    conn.out += next->second;
    conn.ready.erase(next);
    ++conn.next_write;
  }
}

void Server::refresh_epoll_interest(Connection& conn, bool want_write) {
  const bool changed = conn.want_write != want_write;
  conn.want_write = want_write;
  if (!changed) return;
  epoll_event ev{};
  ev.events = EPOLLET | (conn.read_paused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
              (conn.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::apply_backpressure(Connection& conn) {
  if (config_.max_output_buffer_bytes == 0) return;
  const std::size_t outstanding = conn.out.size() - conn.out_off;
  bool changed = false;
  if (!conn.read_paused && outstanding > config_.max_output_buffer_bytes) {
    // The peer is not consuming responses: stop reading new queries from it
    // rather than buffering unboundedly on its behalf.
    conn.read_paused = true;
    stats_.reads_paused.inc();
    obs::log_warn("server", "reads paused: client not draining responses",
                  {{"conn", conn.id},
                   {"buffered_bytes", static_cast<std::uint64_t>(outstanding)}});
    changed = true;
  } else if (conn.read_paused && outstanding <= config_.max_output_buffer_bytes / 2) {
    conn.read_paused = false;
    resumed_reads_.push_back(conn.id);
    changed = true;
  }
  if (changed) {
    epoll_event ev{};
    ev.events = EPOLLET | (conn.read_paused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
                (conn.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }
}

void Server::resume_paused_reads() {
  if (resumed_reads_.empty()) return;
  std::vector<std::uint64_t> ids;
  ids.swap(resumed_reads_);
  for (std::uint64_t id : ids) {
    auto found = conns_.find(id);
    if (found == conns_.end() || found->second->read_paused) continue;
    // Bytes may have queued in the kernel while EPOLLIN was disarmed; the
    // re-arm above reports edges for them, but reading now is cheaper than
    // waiting a poll cycle (and immune to missed-edge corner cases).
    read_ready(*found->second);
  }
}

void Server::flush_writes(Connection& conn) {
  if (const fp::Hit hit = fp::hit("server.send"); hit && hit.is_error()) {
    destroy_conn(conn.id);
    return;
  }
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      stats_.bytes_out.inc(static_cast<std::uint64_t>(n));
      conn.out_off += static_cast<std::size_t>(n);
      conn.last_activity = std::chrono::steady_clock::now();
      conn.stalled = false;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.stalled) {
        conn.stalled = true;
        conn.stalled_since = std::chrono::steady_clock::now();
      }
      refresh_epoll_interest(conn, true);
      apply_backpressure(conn);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    destroy_conn(conn.id);
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  conn.stalled = false;
  refresh_epoll_interest(conn, false);
  apply_backpressure(conn);
  close_if_drained(conn);
}

void Server::close_if_drained(Connection& conn) {
  if (conn.closing && conn.in_flight == 0 && conn.ready.empty() &&
      conn.out_off >= conn.out.size()) {
    destroy_conn(conn.id);
  }
}

void Server::destroy_conn(std::uint64_t id) {
  auto found = conns_.find(id);
  if (found == conns_.end()) return;
  Connection& conn = *found->second;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conns_.erase(found);
  stats_.connections_open.add(-1);
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Completion& completion : batch) {
    auto found = conns_.find(completion.conn_id);
    if (found == conns_.end()) continue;  // connection died while computing
    Connection& conn = *found->second;
    if (conn.timed_out.erase(completion.seq) > 0) {
      // The deadline sweep already answered this sequence with "F timeout";
      // the worker's late result must not be delivered twice.
      continue;
    }
    conn.pending.erase(completion.seq);
    deliver(conn, completion.seq, std::move(completion.response));
    flush_writes(conn);
  }
}

void Server::sweep_deadlines(std::chrono::steady_clock::time_point now) {
  if (config_.query_deadline.count() <= 0) return;
  std::vector<std::uint64_t> affected;
  for (auto& [id, conn] : conns_) {
    bool any = false;
    for (auto it = conn->pending.begin(); it != conn->pending.end();) {
      if (now - it->second.t0 < config_.query_deadline) {
        ++it;
        continue;
      }
      const std::uint64_t seq = it->first;
      const Connection::PendingQuery timed = it->second;
      it = conn->pending.erase(it);
      conn->timed_out.insert(seq);
      stats_.queries_timed_out.inc();
      stats_.queries_errors.inc();
      obs::log_warn("server", "query deadline exceeded; answered F timeout",
                    {{"conn", id},
                     {"seq", seq},
                     {"trace", obs::trace_hex(timed.trace_id)},
                     {"verb", std::string(timed.verb)}});
      if (flight_.enabled()) {
        EvalInfo info;
        record_flight(timed.trace_id, timed.verb, timed.t0, 0, info, 'T',
                      sizeof("F timeout\n") - 1);
      }
      dump_flight_snapshot("deadline", timed.trace_id);
      deliver(*conn, seq, "F timeout\n");
      any = true;
    }
    if (any) affected.push_back(id);
  }
  // Flush after iterating: flush_writes can destroy a connection, which
  // would invalidate the map iterator above.
  for (std::uint64_t id : affected) {
    auto found = conns_.find(id);
    if (found != conns_.end()) flush_writes(*found->second);
  }
}

void Server::sweep_stalled(std::chrono::steady_clock::time_point now) {
  if (config_.write_stall_grace.count() <= 0) return;
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    if (!conn->stalled) continue;
    if (now - conn->stalled_since >= config_.write_stall_grace) expired.push_back(id);
  }
  for (std::uint64_t id : expired) {
    obs::log_warn("server", "slow client disconnected: unwritable past grace",
                  {{"conn", id}});
    // Close first, count second: an observer that has seen the disconnect
    // counter must also see connections_open already decremented.
    destroy_conn(id);
    stats_.slow_client_disconnects.inc();
  }
}

void Server::maybe_schedule_retry(std::chrono::steady_clock::time_point now) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (health_state_ != Health::kDegraded) {
      retry_armed_ = false;
      return;
    }
    if (reloads_in_flight_.load(std::memory_order_acquire) > 0) return;
    if (!retry_armed_) {
      const unsigned attempt = reload_attempts_ > 0 ? reload_attempts_ - 1 : 0;
      const auto delay =
          util::backoff(attempt, config_.reload_retry_initial,
                        config_.reload_retry_max, generation());
      retry_at_ = now + delay;
      retry_armed_ = true;
      return;
    }
    if (now >= retry_at_) {
      retry_armed_ = false;
      fire = true;
    }
  }
  if (fire) {
    stats_.reload_retries.inc();
    obs::log_info("server", "reload retry fired", {{"generation", generation()}});
    enqueue_task(Task{0, 0, {}, now, true});
  }
}

void Server::sweep_idle(std::chrono::steady_clock::time_point now) {
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    if (conn->idle_timeout.count() <= 0) continue;
    if (conn->in_flight > 0 || !conn->ready.empty()) continue;
    if (conn->out_off < conn->out.size()) continue;
    if (now - conn->last_activity >= conn->idle_timeout) expired.push_back(id);
  }
  for (std::uint64_t id : expired) {
    stats_.connections_idle_closed.inc();
    destroy_conn(id);
  }
}

void Server::maybe_log_stats(std::chrono::steady_clock::time_point now) {
  if (config_.stats_log_interval.count() <= 0) return;
  if (now - last_stats_log_ < config_.stats_log_interval) return;
  const std::uint64_t total = stats_.queries_total.value();
  const double seconds =
      std::chrono::duration<double>(now - last_stats_log_).count();
  const double qps =
      seconds > 0 ? static_cast<double>(total - last_logged_queries_) / seconds : 0;
  const CacheStats cache = cache_.stats();
  const obs::Histogram::Snapshot latency = stats_.latency.snapshot();
  obs::log_info(
      "server", "periodic stats",
      {{"conns", stats_.connections_open.value()},
       {"qps", qps},
       {"queries", total},
       {"hit_ratio", cache.hit_ratio()},
       {"p50_us", latency.percentile(50, stats_.latency.bounds()) * 1e6},
       {"p99_us", latency.percentile(99, stats_.latency.bounds()) * 1e6},
       {"generation", generation()},
       {"health", to_string(health().state)}});
  last_stats_log_ = now;
  last_logged_queries_ = total;
}

}  // namespace rpslyzer::server
