#pragma once
// rpslyzerd — a concurrent IRRd-compatible query daemon.
//
// Serves the pipelined IRRd "!" query protocol (the wire format bgpq4 and
// peers speak, [45] in the paper) over the RPSLyzer index, turning the IR
// from an analysis substrate into an actual registry server:
//
//   * one epoll event loop with edge-triggered non-blocking sockets does
//     all accepting, line framing, and writing — it never parses RPSL or
//     resolves sets, so accept latency stays flat under load;
//   * a fixed worker pool evaluates queries against an immutable corpus
//     snapshot and posts framed responses back through a completion queue
//     (an eventfd wakes the loop), with per-connection sequence numbers so
//     pipelined responses are written strictly in request order;
//   * a sharded LRU response cache fronts the engine; entries are stamped
//     with a corpus generation, so a reload (admin `!reload` or SIGHUP via
//     request_reload) atomically swaps the index and implicitly invalidates
//     every stale entry without pausing service;
//   * `!stats` reports connections, query counts, cache hit ratio, and
//     p50/p99 service latency; an optional periodic log line mirrors it;
//   * stop() drains in-flight responses (bounded by drain_timeout) before
//     closing sockets and joining every thread — no leaks under ASan/TSan.
//
// Degraded-mode serving: a failed reload never takes the daemon down — the
// last good generation stays live, the event loop schedules retries with
// capped exponential backoff + jitter (util::backoff), and `!health`
// reports healthy / degraded(reason, stale age) / loading. Per-query
// deadlines (`query_deadline`) answer overdue queries with `F timeout`
// while the stalled worker's late result is discarded, and slow clients
// whose output buffer exceeds `max_output_buffer_bytes` stop being read
// (and are disconnected after `write_stall_grace` of unwritability), so one
// bad peer cannot exhaust daemon memory. Failpoint sites ("server.read",
// "server.send", "server.dispatch"; see util/failpoint.hpp) make each
// failure injectable.
//
// Protocol notes: engine queries (!g !6 !i !a !o) answer exactly what
// query::QueryEngine::evaluate returns, byte for byte. Admin extensions:
// `!q` closes the connection after pending responses flush, `!!` is the
// IRRd keep-alive no-op, `!t<seconds>` adjusts this connection's idle
// timeout, `!stats`, `!health`, and `!reload` as above.
//
// Fleet observability (PR 8): an optional `!id <hex>` prefix supplies the
// query's 64-bit trace id (server-assigned otherwise), `!slow` dumps the
// slow-query log, `!trace <hex>` replays one query's flight record(s),
// and `!fleet` (origin only) renders per-edge heartbeat-digest
// aggregation.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/obs/flight.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/server/cache.hpp"
#include "rpslyzer/server/stats.hpp"

namespace rpslyzer::compile {
class CompiledPolicySnapshot;
}  // namespace rpslyzer::compile

namespace rpslyzer::server {

class Server;

/// Produces a fresh compiled corpus snapshot (index + relations lowered by
/// compile::CompiledPolicySnapshot::build). The returned pointer must keep
/// whatever owns the underlying Index alive — build from aliasing
/// shared_ptrs over the owner. Return nullptr (or throw) on failure: the
/// server keeps serving the previous generation and answers the reload
/// with an error.
using CorpusLoader = std::function<std::shared_ptr<const compile::CompiledPolicySnapshot>()>;

/// How corpus generations reach the server: a dump directory, a snapshot
/// file, a journal follower, a replication edge, or a publisher decorating
/// any of them. `!stats`, `!metrics`, `!repl` and `!fleet` compose from it.
class GenerationSource {
 public:
  GenerationSource() = default;
  GenerationSource(const GenerationSource&) = delete;
  GenerationSource& operator=(const GenerationSource&) = delete;
  virtual ~GenerationSource() = default;
  /// Called by start() and on every reload, off the event loop; the
  /// CorpusLoader contract above.
  virtual std::shared_ptr<const compile::CompiledPolicySnapshot> load() = 0;
  /// Called at the end of a successful start(). Until detach() returns, the
  /// source may call request_reload() and read live state from any thread.
  virtual void attach(Server&) {}
  /// Called first in stop(), before any fd closes: forget the server and
  /// join every thread that could call into it.
  virtual void detach() {}
  /// Extra `!stats` line(s), no trailing newline; empty adds nothing.
  virtual std::string stats_line() const { return {}; }
  /// Complete Prometheus families appended to `!metrics`.
  virtual std::string metrics_text() const { return {}; }
  /// COMPLETE framed answer to `!repl<body>`, on the event-loop thread and
  /// past the cache (chunks are megabytes of binary); nullopt answers
  /// "F replication not enabled".
  virtual std::optional<std::string> repl(std::string_view) { return std::nullopt; }
  /// Unframed `!fleet` page; nullopt answers "F fleet aggregation not enabled".
  virtual std::optional<std::string> fleet() const { return std::nullopt; }
};

/// A source that only loads: dump dirs, `--synth`, `--snapshot`, and every
/// server built from a bare CorpusLoader.
class LoaderSource final : public GenerationSource {
 public:
  explicit LoaderSource(CorpusLoader loader) : loader_(std::move(loader)) {}
  std::shared_ptr<const compile::CompiledPolicySnapshot> load() override { return loader_(); }

 private:
  CorpusLoader loader_;
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; see Server::port() after start()
  unsigned worker_threads = 4;  // 0 = hardware concurrency
  std::size_t cache_capacity = 16384;  // cached responses (0 disables)
  std::size_t cache_shards = 8;
  std::size_t max_connections = 1024;  // beyond this, accept+refuse
  std::size_t max_line_bytes = 4096;   // longest accepted query line
  std::chrono::milliseconds idle_timeout{30000};  // 0 = never
  std::chrono::milliseconds drain_timeout{5000};  // graceful-shutdown budget
  std::chrono::milliseconds stats_log_interval{0};  // 0 = no periodic line

  // Robustness knobs (PR 2). Deadlines and stall handling are enforced on
  // the event loop's sweep tick, so they resolve at ~100 ms granularity.
  std::chrono::milliseconds query_deadline{0};  // 0 = none; overdue → "F timeout"
  std::size_t max_output_buffer_bytes = 4u << 20;  // 0 = unlimited; pause reads past this
  std::chrono::milliseconds write_stall_grace{5000};  // 0 = never drop stalled peers
  std::chrono::milliseconds reload_retry_initial{1000};  // first backoff step
  std::chrono::milliseconds reload_retry_max{60000};     // backoff cap

  // Telemetry (PR 3). Latency buckets are inclusive upper bounds in
  // *seconds* (default 1 µs … ~8 s doubling); `!metrics` always works, and
  // a non-empty snapshot path additionally dumps the same Prometheus page
  // to a file every snapshot interval for offline diffing.
  std::vector<double> latency_bounds = ServerStats::default_latency_bounds();
  std::string metrics_snapshot_path;                     // empty = no dumps
  std::chrono::milliseconds metrics_snapshot_interval{10000};

  // Fleet observability (PR 8). Every accepted query gets a 64-bit trace id
  // (client-supplied via `!id <hex>` or server-assigned) and leaves one
  // record in a lock-free flight-recorder ring, dumped by `!slow` /
  // `!trace <id>`. Queries slower than `slow_threshold` are copied to the
  // bounded slow-query log (0 = keep no slow log); deadline misses snapshot
  // the ring next to the metrics file for post-mortem.
  std::chrono::milliseconds slow_threshold{0};  // `--slow-ms`; 0 = off
  std::size_t flight_capacity = 4096;           // ring slots (0 disables recording)
};

/// Daemon health, as served by `!health`.
enum class Health : std::uint8_t {
  kHealthy,   // current generation loaded cleanly
  kLoading,   // a (re)load is in flight and the last one succeeded
  kDegraded,  // last reload failed; serving the previous good generation
};

const char* to_string(Health h) noexcept;

struct HealthStatus {
  Health state = Health::kLoading;
  std::string reason;  // degraded: why the last reload failed
  std::uint64_t generation = 0;
  std::chrono::milliseconds generation_age{0};  // since this generation loaded
  unsigned reload_attempts = 0;                 // consecutive failed reloads
  bool retry_armed = false;
  std::chrono::milliseconds next_retry{0};  // until the armed retry fires
  bool reload_in_flight = false;
};

class Server {
 public:
  Server(ServerConfig config, std::shared_ptr<GenerationSource> source);
  Server(ServerConfig config, CorpusLoader loader)
      : Server(std::move(config), std::make_shared<LoaderSource>(std::move(loader))) {}
  ~Server();  // stops and joins if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load, bind, spawn the event loop + workers, then attach the source.
  /// Returns false (with *error set) on load/bind failure. Non-blocking.
  bool start(std::string* error = nullptr);

  /// Graceful, idempotent shutdown: detach the source, stop accepting, drain
  /// in-flight responses (up to drain_timeout), close sockets, join threads.
  void stop();

  /// Block until stop() or request_stop() completes the shutdown.
  void wait();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  /// Bound port (useful with config.port == 0). Valid after start().
  std::uint16_t port() const noexcept { return port_; }

  /// Async-signal-safe: flag a graceful shutdown / corpus reload and wake
  /// the event loop. Safe to call from SIGTERM/SIGHUP handlers.
  void request_stop() noexcept;
  void request_reload() noexcept;

  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_relaxed);
  }
  const ServerStats& stats() const noexcept { return stats_; }
  CacheStats cache_stats() const { return cache_.stats(); }

  /// This server's private metric storage (merged with the process-global
  /// registry by metrics_payload()).
  const obs::MetricsRegistry& metrics_registry() const noexcept { return registry_; }

  /// Current health (the structured form of `!health`).
  HealthStatus health() const;

  /// The text behind `!stats` (unframed; one "key: value" line per stat).
  std::string stats_payload() const;

  /// The text behind `!metrics`: Prometheus text exposition merging the
  /// process-global registry (loader, query engine, failpoints) with this
  /// server's own (connections, queries, cache, latency).
  std::string metrics_payload() const;

  /// The text behind `!health`: first line "status: <state>", then
  /// machine-parseable "key: value" detail lines.
  std::string health_payload() const;

  /// This server's per-query flight recorder (`!slow` / `!trace` storage).
  const obs::FlightRecorder& flight() const noexcept { return flight_; }

 private:
  struct Connection;
  struct Task {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string line;
    std::chrono::steady_clock::time_point t0;
    bool reload = false;
    std::uint64_t trace_id = 0;
  };
  /// answer() reports how it resolved a query so the worker can file a
  /// complete flight record without re-deriving cache state.
  struct EvalInfo {
    char cache = '-';  // 'h' hit, 'm' miss
    std::uint32_t eval_us = 0;
    std::uint64_t generation = 0;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string response;
  };
  struct Snapshot {
    std::shared_ptr<const compile::CompiledPolicySnapshot> corpus;
    std::uint64_t generation = 0;
  };

  bool setup_listener(std::string* error);
  void event_loop();
  void worker_loop();

  void accept_ready();
  void handle_conn_event(std::uint64_t id, std::uint32_t events);
  void read_ready(Connection& conn);
  void parse_lines(Connection& conn);
  void dispatch_line(Connection& conn, std::string_view raw);
  void deliver(Connection& conn, std::uint64_t seq, std::string response);
  void flush_writes(Connection& conn);
  void refresh_epoll_interest(Connection& conn, bool want_write);
  void apply_backpressure(Connection& conn);
  void close_if_drained(Connection& conn);
  void destroy_conn(std::uint64_t id);
  void drain_completions();
  void sweep_idle(std::chrono::steady_clock::time_point now);
  void sweep_deadlines(std::chrono::steady_clock::time_point now);
  void sweep_stalled(std::chrono::steady_clock::time_point now);
  void maybe_schedule_retry(std::chrono::steady_clock::time_point now);
  void resume_paused_reads();
  void maybe_log_stats(std::chrono::steady_clock::time_point now);
  void maybe_dump_metrics(std::chrono::steady_clock::time_point now);
  void begin_shutdown();
  void enqueue_task(Task task);
  void wake() noexcept;

  Snapshot snapshot() const;
  std::string answer(const std::string& line, EvalInfo* info = nullptr);
  static std::string verify_query(const compile::CompiledPolicySnapshot& corpus,
                                  std::string_view args);
  std::string do_reload();

  // Flight-recorder plumbing.
  void record_flight(std::uint64_t trace_id, std::string_view verb,
                     std::chrono::steady_clock::time_point t0,
                     std::uint32_t queue_us, const EvalInfo& info, char outcome,
                     std::uint32_t bytes);
  void dump_flight_snapshot(const char* reason, std::uint64_t trace_id);
  std::string slow_payload() const;
  std::string trace_payload(std::uint64_t trace_id) const;

  ServerConfig config_;
  std::shared_ptr<GenerationSource> source_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;

  std::thread loop_thread_;
  std::vector<std::thread> worker_threads_;

  std::atomic<bool> running_{false};
  std::atomic<bool> loop_exited_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> reload_requested_{false};
  bool started_ = false;
  bool shutting_down_ = false;  // event-loop-thread only
  std::chrono::steady_clock::time_point drain_deadline_;

  // Corpus snapshot; swapped wholesale on reload.
  mutable std::mutex corpus_mu_;
  std::shared_ptr<const compile::CompiledPolicySnapshot> corpus_;
  std::atomic<std::uint64_t> generation_{0};
  std::mutex reload_mu_;  // serializes overlapping reload requests

  // Health + retry bookkeeping. Written by workers (do_reload) and the
  // event loop (retry arming); read by any thread via health().
  mutable std::mutex health_mu_;
  Health health_state_ = Health::kLoading;
  std::string health_reason_;
  unsigned reload_attempts_ = 0;  // consecutive failures
  std::chrono::steady_clock::time_point last_good_load_;
  bool retry_armed_ = false;
  std::chrono::steady_clock::time_point retry_at_;
  std::atomic<std::uint32_t> reloads_in_flight_{0};

  // Worker queue.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> tasks_;
  bool workers_stop_ = false;

  // Completion queue (workers -> event loop).
  std::mutex done_mu_;
  std::vector<Completion> done_;

  // Connections, event-loop-thread only. Keyed by a monotone id (not the
  // fd) so a completion for a closed connection can never reach a new
  // connection that reused the same fd number.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 16;
  // Connections un-paused this tick: re-read them once in case bytes
  // arrived while EPOLLIN was disarmed (event-loop thread only).
  std::vector<std::uint64_t> resumed_reads_;

  ResponseCache cache_;
  obs::FlightRecorder flight_;
  std::chrono::steady_clock::time_point flight_epoch_;  // FlightRecord.end_us zero
  std::atomic<std::uint32_t> flight_dumps_{0};          // post-mortem file cap
  // Private registry: per-server counts stay exact even with several Server
  // instances in one process (tests run many). Declared before stats_,
  // whose handles resolve into it at construction.
  obs::MetricsRegistry registry_;
  ServerStats stats_;
  std::chrono::steady_clock::time_point start_time_;
  std::chrono::steady_clock::time_point last_stats_log_;
  std::chrono::steady_clock::time_point last_metrics_dump_;
  std::uint64_t last_logged_queries_ = 0;

  // Shutdown-complete signal for wait().
  std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;
};

}  // namespace rpslyzer::server
