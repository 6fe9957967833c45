#include "rpslyzer/irr/loader.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/rpsl/object_parser.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/pool.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::irr {

namespace {

namespace fp = util::failpoint;

void count_rules(const ir::AutNum& an, IrrCounts& counts) {
  counts.imports += an.imports.size();
  counts.exports += an.exports.size();
}

/// Read `fd` to EOF with one sized read() loop. The fstat size only sizes
/// the buffer (one byte over, so the read that reports EOF needs no
/// growth): a file that grows or shrinks while it is read ends where
/// read() says it does, as a streamed copy would. Returns false (with
/// *detail set) on an I/O error; the partial bytes read so far stay in
/// *text for diagnostics but must not be parsed as complete.
bool read_fully(int fd, std::string* text, std::string* detail) {
  struct stat st {};
  std::size_t capacity = 64 * 1024;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    capacity = static_cast<std::size_t>(st.st_size) + 1;
  }
  text->resize(capacity);
  std::size_t used = 0;
  while (true) {
    if (used == text->size()) text->resize(2 * text->size());
    const ssize_t n = ::read(fd, text->data() + used, text->size() - used);
    if (n > 0) {
      used += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      text->resize(used);
      *detail = "I/O error after " + std::to_string(used) + " bytes";
      return false;
    }
  }
  text->resize(used);
  if (const fp::Hit hit = fp::hit("irr.read")) {
    if (hit.is_error()) {
      *detail = "injected read fault: " + hit.message;
      return false;
    }
    if (hit.is_truncate()) {
      // Simulates a transfer that died mid-file *and was detected*: the
      // read handed back fewer bytes than the dump holds.
      text->resize(std::min(text->size(), hit.truncate_at));
      *detail = "injected mid-read truncation at " +
                std::to_string(text->size()) + " bytes";
      return false;
    }
  }
  return true;
}

/// Longest blank-line-separated paragraph, i.e. what the lexer will treat
/// as one raw object. A corrupt dump that lost its separators shows up as
/// one pathological multi-megabyte "object".
std::size_t largest_object_bytes(std::string_view text) {
  std::size_t largest = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t sep = text.find("\n\n", start);
    const std::size_t end = sep == std::string_view::npos ? text.size() : sep;
    largest = std::max(largest, end - start);
    if (sep == std::string_view::npos) break;
    start = sep + 2;
  }
  return largest;
}

/// The lex+parse core of one shard: no failpoint, no span, no
/// counts->bytes — the queue owns those so each fires exactly once per
/// dump regardless of shard count. Lexer and parser diagnostics go to
/// *separate* sinks so that the shard merge can report every lexer
/// diagnostic of the dump before any parser diagnostic, the order of
/// lexing the dump whole and then parsing its objects.
void parse_text_into(std::string_view text, std::string_view source,
                     std::size_t line_offset, ir::Ir& ir,
                     util::Diagnostics& lex_diagnostics,
                     util::Diagnostics& diagnostics, IrrCounts& counts) {
  // Zero-copy hot path: raw attribute names/values are slices of `text`
  // (plus arena spill for joins), valid exactly as long as this frame —
  // parse_object materializes everything it keeps into interned symbols
  // and IR values before the arena dies with the shard.
  util::Arena arena;
  auto raw_objects = rpsl::lex_objects_view(text, source, lex_diagnostics, arena,
                                            line_offset);
  counts.objects += raw_objects.size();
  for (const auto& raw : raw_objects) {
    rpsl::ParsedObject parsed = rpsl::parse_object(raw, diagnostics);
    std::visit(util::overloaded{
                   [](std::monostate) {},
                   [&](ir::AutNum& an) {
                     ++counts.aut_nums;
                     count_rules(an, counts);
                     ir.aut_nums.emplace(an.asn, std::move(an));
                   },
                   [&](ir::AsSet& s) {
                     ++counts.as_sets;
                     ir.as_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::RouteSet& s) {
                     ++counts.route_sets;
                     ir.route_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::PeeringSet& s) {
                     ++counts.peering_sets;
                     ir.peering_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::FilterSet& s) {
                     ++counts.filter_sets;
                     ir.filter_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::RouteObject& r) {
                     ++counts.routes;
                     ir.routes.push_back(std::move(r));
                   },
               },
               parsed);
  }
}

/// Append a shard fragment to a parsed dump. Unlike merge_into this must
/// NOT deduplicate routes: a parsed dump keeps every route object it holds
/// (dedup happens later, across sources, in merge_into), so shard
/// fragments concatenate routes in shard order and only the keyed maps
/// resolve first-wins (dst = earlier shards).
void append_fragment(ir::Ir& dst, ir::Ir&& src) {
  dst.aut_nums.merge(src.aut_nums);
  dst.as_sets.merge(src.as_sets);
  dst.route_sets.merge(src.route_sets);
  dst.peering_sets.merge(src.peering_sets);
  dst.filter_sets.merge(src.filter_sets);
  dst.routes.insert(dst.routes.end(), std::make_move_iterator(src.routes.begin()),
                    std::make_move_iterator(src.routes.end()));
  src.routes.clear();
}

/// merge_into without its failpoint: first-wins maps, routes deduplicated
/// by (prefix, origin) through `seen`, which must cover dst's routes.
/// Merging a dump's shard fragments one by one in shard order gives what
/// merging the concatenated dump gives.
void merge_fragment(ir::Ir& dst, ir::Ir&& src, RouteKeySet& seen) {
  // map::merge keeps dst's entry on key conflict — exactly first-wins.
  dst.aut_nums.merge(src.aut_nums);
  dst.as_sets.merge(src.as_sets);
  dst.route_sets.merge(src.route_sets);
  dst.peering_sets.merge(src.peering_sets);
  dst.filter_sets.merge(src.filter_sets);
  for (auto& r : src.routes) {
    if (seen.emplace(r.prefix, r.origin).second) dst.routes.push_back(std::move(r));
  }
  src.routes.clear();
}

void fire_merge_failpoint() {
  if (const fp::Hit hit = fp::hit("irr.merge")) {
    if (hit.is_error()) throw std::runtime_error("irr.merge: " + hit.message);
  }
}

/// Sum a shard's census into the per-dump census (bytes excluded: it is
/// set once from the whole dump).
void accumulate_counts(IrrCounts& total, const IrrCounts& shard) {
  total.objects += shard.objects;
  total.aut_nums += shard.aut_nums;
  total.routes += shard.routes;
  total.imports += shard.imports;
  total.exports += shard.exports;
  total.as_sets += shard.as_sets;
  total.route_sets += shard.route_sets;
  total.peering_sets += shard.peering_sets;
  total.filter_sets += shard.filter_sets;
}

/// Close-on-scope-exit fd.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// What one shard's lex+parse left behind.
struct ShardSlot {
  ir::Ir ir;
  util::Diagnostics lex_diagnostics;
  util::Diagnostics parse_diagnostics;
  IrrCounts counts;
  std::exception_ptr error;
};

/// Where a source is on its way through the queue.
enum class Stage : std::uint8_t {
  kUnread,    // waiting for, or in, its read
  kRead,      // read and guard-checked; waiting for its "irr.parse" turn
  kCutReady,  // past its turn; waiting for a worker to cut it
  kCutting,
  kParsing,   // shards waiting or running
  kParsed,    // nothing left to parse; waiting for its turn to finish
};

/// One source's trip through the queue: read (a dump in memory skips
/// that), checked against the guards, cut into shards, parsed shard by
/// shard, and finished in priority order.
struct Job {
  std::string_view name;
  const std::filesystem::path* path = nullptr;  // null: `text` is the dump
  std::string_view text;  // the dump, as parsed (an injected truncation shortens it)
  std::string bytes;      // a file's contents; released once its shards are parsed

  SourceStatus status = SourceStatus::kOk;  // the read verdict; kOk = parse it
  std::string detail;                       // degrade/quarantine reason otherwise
  std::exception_ptr error;  // injected "irr.parse" error, or a read/cut that threw
  IrrCounts counts;          // name, and bytes once past the turn
  std::vector<rpsl::Shard> shards;
  std::vector<ShardSlot> slots;
  std::chrono::steady_clock::time_point start;  // when its read began

  // Queue state, guarded by ShardQueue::mu_.
  Stage stage = Stage::kUnread;
  std::size_t next_shard = 0;   // shards handed to workers
  std::size_t shards_left = 0;  // shards not yet parsed
};

/// Deliver a parsed job's diagnostics as a whole-dump lex and parse would:
/// every shard's lexer diagnostics, then each shard's parser diagnostics up
/// to and including the first shard that failed. Returns the job's
/// failure, or null when every shard parsed.
std::exception_ptr deliver_diagnostics(Job& job, util::Diagnostics& diagnostics) {
  if (job.error) return job.error;
  for (ShardSlot& slot : job.slots) diagnostics.merge(std::move(slot.lex_diagnostics));
  for (ShardSlot& slot : job.slots) {
    diagnostics.merge(std::move(slot.parse_diagnostics));
    if (slot.error) return slot.error;
    accumulate_counts(job.counts, slot.counts);
  }
  return nullptr;
}

/// The loader's one work queue, shared by every source of a load. Each
/// worker takes the most urgent task there is: finish the next source in
/// priority order, cut a source whose turn has come, parse the earliest
/// source's next shard, or read the next source. A worker thus reads only
/// when nothing already read needs it, so a single worker holds at most
/// one dump's text; with more, sources are read while others parse.
class ShardQueue {
 public:
  /// `finish` is called once per job, in job order, one call at a time,
  /// after the job's shards are all parsed (or it has nothing to parse).
  ShardQueue(std::vector<Job>& jobs, const LoadOptions& options,
             std::function<void(Job&)> finish)
      : jobs_(jobs), options_(options), finish_(std::move(finish)) {}
  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Drain every job on `threads` workers, the calling thread being one.
  /// Rethrows the first exception that escaped `finish`.
  void run(unsigned threads) {
    if (jobs_.empty()) return;
    util::run_on_pool(threads, [this](std::size_t) { work(); });
    if (fatal_) std::rethrow_exception(fatal_);
  }

 private:
  void work();
  void read(Job& job);
  void cut(Job& job);
  void parse_shard(Job& job, std::size_t index);
  void take_turns();

  std::vector<Job>& jobs_;
  const LoadOptions& options_;
  std::function<void(Job&)> finish_;

  obs::MetricsRegistry& registry_ = obs::MetricsRegistry::global();
  obs::Counter& bytes_read_ = registry_.counter("rpslyzer_loader_bytes_read_total",
                                                "Bytes read from IRR dump files");
  obs::Counter& shards_total_ = registry_.counter(
      "rpslyzer_loader_shards_total", "Parse shards cut from IRR dumps for parallel lexing");
  obs::Histogram& throughput_ = registry_.histogram(
      "rpslyzer_loader_parse_throughput_bytes_per_second",
      "Per-shard lex+parse throughput", obs::exponential_bounds(1e6, 2.0, 14));

  std::mutex mu_;  // guards the fields below and every Job's queue state
  std::condition_variable cv_;
  std::size_t next_read_ = 0;  // jobs handed to a reader, in priority order
  std::size_t turn_ = 0;       // jobs past their "irr.parse" turn
  std::size_t finished_ = 0;   // jobs finished
  bool finishing_ = false;     // a worker is inside finish_
  std::exception_ptr fatal_;   // the first exception that escaped finish_
};

void ShardQueue::work() {
  std::unique_lock lock(mu_);
  while (finished_ < jobs_.size()) {
    if (Job& job = jobs_[finished_]; !finishing_ && job.stage == Stage::kParsed) {
      finishing_ = true;
      lock.unlock();
      std::exception_ptr escaped;
      try {
        finish_(job);
      } catch (...) {
        escaped = std::current_exception();
      }
      lock.lock();
      if (escaped && !fatal_) fatal_ = escaped;
      ++finished_;
      finishing_ = false;
      cv_.notify_all();
      continue;
    }

    Job* to_cut = nullptr;
    Job* to_parse = nullptr;
    for (std::size_t i = finished_; i < next_read_ && to_cut == nullptr; ++i) {
      Job& job = jobs_[i];
      if (job.stage == Stage::kCutReady) to_cut = &job;
      if (to_parse == nullptr && job.stage == Stage::kParsing &&
          job.next_shard < job.shards.size()) {
        to_parse = &job;
      }
    }
    if (to_cut == nullptr && to_parse == nullptr) {
      if (next_read_ == jobs_.size()) {
        cv_.wait(lock);
        continue;
      }
      Job& job = jobs_[next_read_++];
      lock.unlock();
      read(job);
      lock.lock();
      job.stage = Stage::kRead;
      take_turns();
      cv_.notify_all();
      // The reader cuts its own dump when its turn came at once.
      if (job.stage != Stage::kCutReady) continue;
      to_cut = &job;
    }
    if (to_cut != nullptr) {
      to_cut->stage = Stage::kCutting;
      lock.unlock();
      cut(*to_cut);
      lock.lock();
      to_cut->shards_left = to_cut->shards.size();
      to_cut->stage = to_cut->shards.empty() ? Stage::kParsed : Stage::kParsing;
      cv_.notify_all();
      continue;
    }
    const std::size_t index = to_parse->next_shard++;
    lock.unlock();
    parse_shard(*to_parse, index);
    lock.lock();
    if (--to_parse->shards_left > 0) continue;
    // The last shard: no other worker reads the job's text any more, so
    // it is released without the lock.
    lock.unlock();
    to_parse->bytes = std::string();
    to_parse->text = {};
    lock.lock();
    to_parse->shards = {};
    to_parse->stage = Stage::kParsed;
    cv_.notify_all();
  }
}

/// Give each job that has been read, in priority order, its "irr.parse"
/// turn. The failpoint is evaluated here, once per source that passed its
/// read, under the queue lock, so N* budgets land on the same sources at
/// every thread count. Caller holds mu_.
void ShardQueue::take_turns() {
  while (turn_ < jobs_.size() && jobs_[turn_].stage == Stage::kRead) {
    Job& job = jobs_[turn_++];
    job.stage = Stage::kParsed;  // unless there is something to parse
    if (job.status != SourceStatus::kOk || job.error) continue;
    if (const fp::Hit hit = fp::hit("irr.parse")) {
      if (hit.is_error()) {
        job.error = std::make_exception_ptr(std::runtime_error("irr.parse: " + hit.message));
        continue;
      }
      // Silent truncation at the parse layer: the lexer sees a shorter dump
      // and must still produce a clean (if smaller) object stream.
      if (hit.is_truncate()) {
        job.text = job.text.substr(0, std::min(job.text.size(), hit.truncate_at));
      }
    }
    job.counts.bytes = job.text.size();
    job.stage = Stage::kCutReady;
  }
}

void ShardQueue::read(Job& job) {
  obs::Span source_span("irr.source", job.name);
  job.start = std::chrono::steady_clock::now();
  const auto reject = [&job](SourceStatus status, std::string detail) {
    job.status = status;
    job.detail = std::move(detail);
    job.bytes = std::string();  // a rejected dump is never parsed
    job.text = {};
  };
  try {
    // How a verdict names the dump: its file, or the source for a dump in
    // memory.
    const std::string where =
        job.path != nullptr ? job.path->string() : std::string(job.name);
    if (job.path != nullptr) {
      const std::filesystem::path& path = *job.path;
      Fd fd;
      {
        obs::Span open_span("irr.open", job.name);
        if (const fp::Hit hit = fp::hit("irr.open"); hit && hit.is_error()) {
          return reject(SourceStatus::kDegraded,
                        "IRR dump unavailable: injected open fault: " + hit.message);
        }
        std::error_code ec;
        const bool exists = std::filesystem::exists(path, ec);
        if (exists && !std::filesystem::is_regular_file(path, ec)) {
          return reject(SourceStatus::kQuarantined, "not a regular file: " + where);
        }
        fd.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd.fd < 0) return reject(SourceStatus::kDegraded, "IRR dump unavailable: " + where);
      }
      std::string read_error;
      bool read_ok;
      {
        obs::Span read_span("irr.read", job.name);
        read_ok = read_fully(fd.fd, &job.bytes, &read_error);
      }
      bytes_read_.inc(job.bytes.size());
      if (!read_ok) {
        return reject(SourceStatus::kQuarantined,
                      "read failed mid-dump (" + read_error + "): " + where);
      }
      job.text = job.bytes;
    }
    // No object can be longer than its dump, so a dump within the limit
    // skips the scan.
    if (options_.max_object_bytes > 0 && job.text.size() > options_.max_object_bytes) {
      const std::size_t largest = largest_object_bytes(job.text);
      if (largest > options_.max_object_bytes) {
        return reject(SourceStatus::kQuarantined,
                      "pathological object of " + std::to_string(largest) + " bytes (limit " +
                          std::to_string(options_.max_object_bytes) + "): " + where);
      }
    }
  } catch (...) {
    job.error = std::current_exception();
  }
}

void ShardQueue::cut(Job& job) {
  obs::Span cut_span("irr.cut", job.name);
  try {
    job.shards = rpsl::shard_objects(job.text, options_.shard_target_bytes);
    job.slots.resize(job.shards.size());
  } catch (...) {
    job.error = std::current_exception();
    job.shards.clear();
  }
  shards_total_.inc(job.shards.size());
}

void ShardQueue::parse_shard(Job& job, std::size_t index) {
  const rpsl::Shard& shard = job.shards[index];
  ShardSlot& slot = job.slots[index];
  const auto start = std::chrono::steady_clock::now();
  try {
    obs::Span shard_span("irr.shard", job.name);
    parse_text_into(shard.text, job.name, shard.line_offset, slot.ir, slot.lex_diagnostics,
                    slot.parse_diagnostics, slot.counts);
  } catch (...) {
    slot.error = std::current_exception();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  throughput_.observe(static_cast<double>(shard.text.size()) / std::max(seconds, 1e-9));
}

}  // namespace

const char* to_string(SourceStatus s) noexcept {
  switch (s) {
    case SourceStatus::kOk:
      return "ok";
    case SourceStatus::kDegraded:
      return "degraded";
    case SourceStatus::kQuarantined:
      return "quarantined";
  }
  return "?";
}

std::size_t LoadResult::count_with(SourceStatus status) const noexcept {
  std::size_t n = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.status == status) ++n;
  }
  return n;
}

const SourceOutcome* LoadResult::outcome(std::string_view name) const noexcept {
  for (const auto& outcome : outcomes) {
    if (outcome.name == name) return &outcome;
  }
  return nullptr;
}

ir::Ir parse_dump(std::string_view text, std::string_view source,
                  util::Diagnostics& diagnostics, IrrCounts* counts, unsigned threads,
                  std::size_t shard_target_bytes) {
  LoadOptions options;
  options.max_object_bytes = 0;  // a caller-supplied dump is parsed as it is
  options.shard_target_bytes = shard_target_bytes;
  std::vector<Job> jobs(1);
  jobs[0].name = source;
  jobs[0].text = text;
  ir::Ir ir;
  std::exception_ptr error;
  ShardQueue(jobs, options, [&](Job& job) {
    error = deliver_diagnostics(job, diagnostics);
    if (error) return;
    for (ShardSlot& slot : job.slots) append_fragment(ir, std::move(slot.ir));
  }).run(util::resolve_threads(threads));
  if (error) std::rethrow_exception(error);
  if (counts != nullptr) {
    counts->bytes = jobs[0].counts.bytes;
    accumulate_counts(*counts, jobs[0].counts);
  }
  return ir;
}

void merge_into(ir::Ir& dst, ir::Ir&& src, RouteKeySet* seen) {
  fire_merge_failpoint();
  // Callers merging repeatedly pass a persistent key set so this rebuild
  // only happens on the standalone path.
  RouteKeySet rebuilt;
  if (seen == nullptr) {
    for (const auto& r : dst.routes) rebuilt.emplace(r.prefix, r.origin);
    seen = &rebuilt;
  }
  merge_fragment(dst, std::move(src), *seen);
}

namespace {

/// The ingestion pipeline, for every thread count and every source kind:
/// one ShardQueue over all sources. Everything whose order shows in the
/// result (diagnostics, outcomes, counts, the merge, logs, and the
/// "irr.parse"/"irr.merge" failpoints) happens in priority order, which
/// is why the result does not depend on the thread count.
LoadResult load(std::vector<Job>& jobs, const LoadOptions& options) {
  const unsigned threads = util::resolve_threads(options.threads);
  obs::Span load_span("irr.load");
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& objects_parsed = registry.counter(
      "rpslyzer_loader_objects_parsed_total", "RPSL objects parsed from IRR dumps");
  obs::Histogram& source_seconds = registry.histogram(
      "rpslyzer_loader_source_seconds", "Wall time loading one IRR source",
      obs::exponential_bounds(0.001, 4.0, 10));

  LoadResult result;
  RouteKeySet seen_routes;
  ShardQueue(jobs, options, [&](Job& job) {
    const std::string name(job.name);
    SourceOutcome outcome;
    outcome.name = name;

    // Degraded: the dump is unavailable and skipped with a warning.
    // Quarantined: the dump exists but cannot be trusted; merging a prefix
    // of it would silently shrink the corpus, so none of it is merged and
    // the failure is recorded as a hard error.
    const auto reject = [&](SourceStatus status, std::string detail) {
      outcome.status = status;
      if (status == SourceStatus::kDegraded) {
        result.diagnostics.warning(util::DiagnosticKind::kOther, detail, name, {name, 0});
        obs::log_warn("loader", "source degraded", {{"source", name}, {"reason", detail}});
      } else {
        result.diagnostics.error(util::DiagnosticKind::kOther,
                                 "IRR dump quarantined: " + detail, name, {name, 0});
        obs::log_error("loader", "source quarantined",
                       {{"source", name}, {"reason", detail}});
      }
      outcome.detail = std::move(detail);
    };

    if (job.status != SourceStatus::kOk) {
      reject(job.status, std::move(job.detail));
    } else {
      std::exception_ptr error = deliver_diagnostics(job, result.diagnostics);
      std::size_t raw_routes = 0;
      if (!error) {
        try {
          obs::Span merge_span("irr.merge", job.name);
          fire_merge_failpoint();
          for (ShardSlot& slot : job.slots) {
            raw_routes += slot.ir.routes.size();
            merge_fragment(result.ir, std::move(slot.ir), seen_routes);
          }
        } catch (...) {
          error = std::current_exception();
        }
      }
      job.slots = {};
      try {
        if (error) std::rethrow_exception(error);
        result.raw_route_objects += raw_routes;
        objects_parsed.inc(job.counts.objects);
      } catch (const std::exception& e) {
        reject(SourceStatus::kQuarantined, std::string("exception mid-load: ") + e.what());
        job.counts = IrrCounts{};  // partial counts would misstate the census
        job.counts.name = name;
      }
    }

    registry
        .counter("rpslyzer_loader_sources_total", "IRR source load outcomes",
                 {{"source", name}, {"status", to_string(outcome.status)}})
        .inc();
    source_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - job.start).count());
    result.counts.push_back(std::move(job.counts));
    result.outcomes.push_back(std::move(outcome));
  }).run(threads);

  obs::log_info("loader", "load complete",
                {{"sources", jobs.size()},
                 {"threads", threads},
                 {"degraded", result.count_with(SourceStatus::kDegraded)},
                 {"quarantined", result.count_with(SourceStatus::kQuarantined)},
                 {"routes", result.ir.routes.size()},
                 {"aut_nums", result.ir.aut_nums.size()}});
  return result;
}

/// A job per source, named and pointing at its dump.
Job make_job(std::string_view name, const std::filesystem::path* path,
             std::string_view text) {
  Job job;
  job.name = name;
  job.path = path;
  job.text = text;
  job.counts.name = std::string(name);
  return job;
}

}  // namespace

LoadResult load_irrs(const std::vector<IrrSource>& sources, const LoadOptions& options) {
  std::vector<Job> jobs;
  jobs.reserve(sources.size());
  for (const IrrSource& source : sources) jobs.push_back(make_job(source.name, &source.path, {}));
  return load(jobs, options);
}

LoadResult load_irrs(const std::vector<std::pair<std::string, std::string>>& dumps,
                     const LoadOptions& options) {
  std::vector<Job> jobs;
  jobs.reserve(dumps.size());
  for (const auto& [name, text] : dumps) jobs.push_back(make_job(name, nullptr, text));
  return load(jobs, options);
}

std::vector<IrrSource> table1_sources(const std::filesystem::path& directory) {
  // Table 1 order: authoritative regional and national registries, RADB,
  // then other databases.
  static const char* kNames[] = {"APNIC", "AFRINIC", "ARIN",   "LACNIC", "RIPE",
                                 "IDNIC", "JPIRR",   "RADB",   "NTTCOM", "LEVEL3",
                                 "TC",    "REACH",   "ALTDB"};
  std::vector<IrrSource> sources;
  for (const char* name : kNames) {
    sources.push_back({name, directory / (util::lower(name) + ".db")});
  }
  return sources;
}

}  // namespace rpslyzer::irr
