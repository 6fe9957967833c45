#include "rpslyzer/irr/loader.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
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

/// Slurp a stream chunk-wise so stream state reflects how the read ended:
/// eof = complete, bad/fail-without-eof = the transfer died mid-file.
/// Returns false (with *detail set) on an I/O error; the partial bytes read
/// so far stay in *text for diagnostics but must not be parsed as complete.
bool slurp(std::ifstream& in, std::string* text, std::string* detail) {
  char chunk[64 * 1024];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text->append(chunk, static_cast<std::size_t>(in.gcount()));
    if (in.eof()) break;
    if (in.bad()) break;
  }
  if (in.bad() || (in.fail() && !in.eof())) {
    *detail = "I/O error after " + std::to_string(text->size()) + " bytes";
    return false;
  }
  if (const fp::Hit hit = fp::hit("irr.read")) {
    if (hit.is_error()) {
      *detail = "injected read fault: " + hit.message;
      return false;
    }
    if (hit.is_truncate()) {
      // Simulates a transfer that died mid-file *and was detected*: the
      // stream handed back fewer bytes than the dump holds.
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
/// counts->bytes — parse_dump owns those so each fires exactly once per
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

/// Merge a shard fragment into the per-dump accumulator. Unlike merge_into
/// this must NOT deduplicate routes: a parsed dump keeps every route object
/// it holds (dedup happens later, across sources, in merge_into), so shard
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
  threads = util::resolve_threads(threads);
  obs::Span span("irr.parse", source);
  // Evaluated exactly once for the whole dump, on the calling thread, so
  // failpoint budgets and truncation do not depend on the shard count.
  if (const fp::Hit hit = fp::hit("irr.parse")) {
    if (hit.is_error()) throw std::runtime_error("irr.parse: " + hit.message);
    // Silent truncation at the parse layer: the lexer sees a shorter dump
    // and must still produce a clean (if smaller) object stream.
    if (hit.is_truncate()) text = text.substr(0, std::min(text.size(), hit.truncate_at));
  }
  if (counts != nullptr) counts->bytes = text.size();

  // One worker takes the dump as one shard: cutting it would buy no
  // parallelism and cost a line scan plus fragment merges.
  const std::vector<rpsl::Shard> shards =
      threads == 1 ? std::vector<rpsl::Shard>{{text, 0}}
                   : rpsl::shard_objects(text, shard_target_bytes);
  auto& registry = obs::MetricsRegistry::global();
  registry
      .counter("rpslyzer_loader_shards_total",
               "Parse shards cut from IRR dumps for parallel lexing")
      .inc(shards.size());
  obs::Histogram& throughput = registry.histogram(
      "rpslyzer_loader_parse_throughput_bytes_per_second",
      "Per-shard lex+parse throughput", obs::exponential_bounds(1e6, 2.0, 14));

  struct ShardSlot {
    ir::Ir ir;
    util::Diagnostics lex_diagnostics;
    util::Diagnostics parse_diagnostics;
    IrrCounts counts;
    std::exception_ptr error;
  };
  std::vector<ShardSlot> slots(shards.size());

  std::atomic<std::size_t> next{0};
  util::run_on_pool(std::min<std::size_t>(threads, shards.size()), [&](std::size_t) {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= shards.size()) break;
      ShardSlot& slot = slots[i];
      const auto start = std::chrono::steady_clock::now();
      try {
        obs::Span shard_span("irr.shard", source);
        parse_text_into(shards[i].text, source, shards[i].line_offset, slot.ir,
                        slot.lex_diagnostics, slot.parse_diagnostics, slot.counts);
      } catch (...) {
        slot.error = std::current_exception();
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      throughput.observe(static_cast<double>(shards[i].text.size()) /
                         std::max(seconds, 1e-9));
    }
  });

  // Deterministic merge in shard (= text) order, lexer phase before parser
  // phase. On a worker exception the completed prefix's parser diagnostics
  // are still delivered before the exception resumes here, as if the parse
  // of the whole dump had failed at that shard.
  ir::Ir ir;
  for (ShardSlot& slot : slots) diagnostics.merge(std::move(slot.lex_diagnostics));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ShardSlot& slot = slots[i];
    diagnostics.merge(std::move(slot.parse_diagnostics));
    if (slot.error) std::rethrow_exception(slot.error);
    if (counts != nullptr) accumulate_counts(*counts, slot.counts);
    if (i == 0) {
      ir = std::move(slot.ir);
    } else {
      append_fragment(ir, std::move(slot.ir));
    }
  }
  return ir;
}

void merge_into(ir::Ir& dst, ir::Ir&& src, RouteKeySet* seen) {
  if (const fp::Hit hit = fp::hit("irr.merge")) {
    if (hit.is_error()) throw std::runtime_error("irr.merge: " + hit.message);
  }
  // map::merge keeps dst's entry on key conflict — exactly first-wins.
  dst.aut_nums.merge(src.aut_nums);
  dst.as_sets.merge(src.as_sets);
  dst.route_sets.merge(src.route_sets);
  dst.peering_sets.merge(src.peering_sets);
  dst.filter_sets.merge(src.filter_sets);

  // Routes: dedup by (prefix, origin); the first (higher-priority) object
  // is kept. Callers merging repeatedly (load_irrs) pass a persistent key
  // set so the rebuild below only happens on the standalone path.
  RouteKeySet rebuilt;
  if (seen == nullptr) {
    for (const auto& r : dst.routes) rebuilt.emplace(r.prefix, r.origin);
    seen = &rebuilt;
  }
  for (auto& r : src.routes) {
    if (seen->emplace(r.prefix, r.origin).second) dst.routes.push_back(std::move(r));
  }
  src.routes.clear();
}

namespace {

/// One source as the loader sees it: a dump file to read, or a dump
/// already in memory, which skips the read step.
struct SourceInput {
  std::string_view name;
  const std::filesystem::path* path = nullptr;  // null: `text` is the dump
  std::string_view text;
};

/// What the read step hands to the merge loop: the dump bytes, read and
/// guard-checked, or the verdict that keeps the source out of the merge.
/// Diagnostics, logs and metrics for a verdict are NOT emitted here: the
/// merge loop emits them in priority order, so their order does not depend
/// on which worker read which source.
struct ReadSource {
  std::string bytes;  // the file's contents; empty for an in-memory dump
  SourceStatus status = SourceStatus::kOk;  // kOk: ready to parse
  std::string detail;  // degrade/quarantine reason otherwise
  double read_seconds = 0;
};

ReadSource read_source(const SourceInput& input, const LoadOptions& options,
                       obs::Counter& bytes_read) {
  obs::Span source_span("irr.source", input.name);
  ReadSource pre;
  const auto start = std::chrono::steady_clock::now();
  const auto done = [&](SourceStatus status, std::string detail) {
    pre.status = status;
    pre.detail = std::move(detail);
    pre.read_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return std::move(pre);
  };

  // How a verdict names the dump: its file, or the source for a dump in
  // memory.
  const std::string where =
      input.path != nullptr ? input.path->string() : std::string(input.name);
  std::string_view text = input.text;
  if (input.path != nullptr) {
    const std::filesystem::path& path = *input.path;
    std::ifstream in;
    {
      obs::Span open_span("irr.open", input.name);
      if (const fp::Hit hit = fp::hit("irr.open"); hit && hit.is_error()) {
        return done(SourceStatus::kDegraded,
                    "IRR dump unavailable: injected open fault: " + hit.message);
      }
      std::error_code ec;
      const bool exists = std::filesystem::exists(path, ec);
      if (exists && !std::filesystem::is_regular_file(path, ec)) {
        return done(SourceStatus::kQuarantined, "not a regular file: " + where);
      }
      in.open(path, std::ios::binary);
      if (!in) return done(SourceStatus::kDegraded, "IRR dump unavailable: " + where);
    }
    std::string read_error;
    bool read_ok;
    {
      obs::Span read_span("irr.read", input.name);
      read_ok = slurp(in, &pre.bytes, &read_error);
    }
    bytes_read.inc(pre.bytes.size());
    if (!read_ok) {
      return done(SourceStatus::kQuarantined,
                  "read failed mid-dump (" + read_error + "): " + where);
    }
    text = pre.bytes;
  }
  if (options.max_object_bytes > 0) {
    const std::size_t largest = largest_object_bytes(text);
    if (largest > options.max_object_bytes) {
      return done(SourceStatus::kQuarantined,
                  "pathological object of " + std::to_string(largest) + " bytes (limit " +
                      std::to_string(options.max_object_bytes) + "): " + where);
    }
  }
  return done(SourceStatus::kOk, {});
}

/// The ingestion pipeline, for every thread count and every source kind:
/// read (and guard) each source, then walk the sources in priority order
/// on this thread, parsing each ready dump as shards on the pool and
/// merging through the shared RouteKeySet. All ordering-sensitive effects
/// (diagnostics, outcomes, counts, merge, "irr.parse"/"irr.merge"
/// failpoints) happen in the priority-order loop, which is why the result
/// does not depend on the thread count.
LoadResult load(const std::vector<SourceInput>& inputs, const LoadOptions& options) {
  const unsigned threads = util::resolve_threads(options.threads);
  obs::Span load_span("irr.load");
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& bytes_read = registry.counter(
      "rpslyzer_loader_bytes_read_total", "Bytes read from IRR dump files");
  obs::Counter& objects_parsed = registry.counter(
      "rpslyzer_loader_objects_parsed_total", "RPSL objects parsed from IRR dumps");
  obs::Histogram& source_seconds = registry.histogram(
      "rpslyzer_loader_source_seconds", "Wall time loading one IRR source",
      obs::exponential_bounds(0.001, 4.0, 10));

  // Read-ahead: with a pool, every source is read and guard-checked up
  // front, each on one worker (so irr.open fires before irr.read per
  // source). One worker reads each source just before parsing it instead,
  // so at most one dump's text is resident.
  std::vector<ReadSource> read_ahead;
  if (threads > 1) {
    obs::Span read_span("irr.read_all");
    read_ahead.resize(inputs.size());
    std::atomic<std::size_t> next{0};
    util::run_on_pool(std::min<std::size_t>(threads, inputs.size()), [&](std::size_t) {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= inputs.size()) break;
        read_ahead[i] = read_source(inputs[i], options, bytes_read);
      }
    });
  }

  LoadResult result;
  RouteKeySet seen_routes;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const SourceInput& input = inputs[i];
    const std::string name(input.name);
    ReadSource pre = threads > 1 ? std::move(read_ahead[i])
                                 : read_source(input, options, bytes_read);
    const auto merge_start = std::chrono::steady_clock::now();
    IrrCounts counts;
    counts.name = name;
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

    if (pre.status != SourceStatus::kOk) {
      reject(pre.status, std::move(pre.detail));
    } else {
      try {
        const std::string_view text = input.path != nullptr ? pre.bytes : input.text;
        ir::Ir parsed = parse_dump(text, input.name, result.diagnostics, &counts, threads,
                                   options.shard_target_bytes);
        const std::size_t raw_routes = parsed.routes.size();
        {
          obs::Span merge_span("irr.merge", input.name);
          merge_into(result.ir, std::move(parsed), &seen_routes);
        }
        result.raw_route_objects += raw_routes;
        objects_parsed.inc(counts.objects);
      } catch (const std::exception& e) {
        reject(SourceStatus::kQuarantined, std::string("exception mid-load: ") + e.what());
        counts = IrrCounts{};  // partial counts would misstate the census
        counts.name = name;
      }
    }
    const double read_seconds = pre.read_seconds;
    pre = ReadSource{};  // release the dump's bytes before the next source

    registry
        .counter("rpslyzer_loader_sources_total", "IRR source load outcomes",
                 {{"source", name}, {"status", to_string(outcome.status)}})
        .inc();
    source_seconds.observe(
        read_seconds +
        std::chrono::duration<double>(std::chrono::steady_clock::now() - merge_start)
            .count());
    result.counts.push_back(std::move(counts));
    result.outcomes.push_back(std::move(outcome));
  }
  obs::log_info("loader", "load complete",
                {{"sources", inputs.size()},
                 {"threads", threads},
                 {"degraded", result.count_with(SourceStatus::kDegraded)},
                 {"quarantined", result.count_with(SourceStatus::kQuarantined)},
                 {"routes", result.ir.routes.size()},
                 {"aut_nums", result.ir.aut_nums.size()}});
  return result;
}

}  // namespace

LoadResult load_irrs(const std::vector<IrrSource>& sources, const LoadOptions& options) {
  std::vector<SourceInput> inputs;
  inputs.reserve(sources.size());
  for (const IrrSource& source : sources) inputs.push_back({source.name, &source.path, {}});
  return load(inputs, options);
}

LoadResult load_irrs(const std::vector<std::pair<std::string, std::string>>& dumps,
                     const LoadOptions& options) {
  std::vector<SourceInput> inputs;
  inputs.reserve(dumps.size());
  for (const auto& [name, text] : dumps) inputs.push_back({name, nullptr, text});
  return load(inputs, options);
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
