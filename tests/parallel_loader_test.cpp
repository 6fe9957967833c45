// Differential proof for the ingestion pipeline: for any thread count and
// shard size — down to one object per shard — load_irrs' merged Ir,
// per-source outcomes/counts, diagnostics, and serialized index must be
// byte-identical to the serial reference below on the synthetic 13-IRR
// corpus, with and without failpoint injection at "irr.read"/"irr.parse".
// Runs under TSan via scripts/sanitize_check.sh to catch shard-merge races.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "rpslyzer/ir/json_io.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/rpsl/object_parser.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::irr {
namespace {

namespace fp = util::failpoint;

// The serial ingestion pipeline as it stood before every thread count ran
// the sharded one, kept verbatim as the reference the library is checked
// against: one source at a time, slurp → lex → parse → merge, no shards.
namespace reference {

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

/// The lex+parse core shared by the serial and sharded paths: no failpoint,
/// no span, no counts->bytes — callers own those so each fires exactly once
/// per dump regardless of shard count. Lexer and parser diagnostics go to
/// *separate* sinks because the serial path reports all lexer diagnostics
/// before any parser diagnostic (lex_objects finishes before the parse
/// loop starts); the shard merge preserves that phase order by merging
/// every shard's lex sink before any shard's parse sink. Serial callers
/// pass the same sink twice.
void parse_text_into(std::string_view text, std::string_view source,
                     std::size_t line_offset, ir::Ir& ir,
                     util::Diagnostics& lex_diagnostics,
                     util::Diagnostics& diagnostics, IrrCounts* counts) {
  // Zero-copy hot path: raw attribute names/values are slices of `text`
  // (plus arena spill for joins), valid exactly as long as this frame —
  // parse_object materializes everything it keeps into interned symbols
  // and IR values before the arena dies with the shard.
  util::Arena arena;
  auto raw_objects = rpsl::lex_objects_view(text, source, lex_diagnostics, arena,
                                            line_offset);
  if (counts != nullptr) counts->objects += raw_objects.size();
  for (const auto& raw : raw_objects) {
    rpsl::ParsedObject parsed = rpsl::parse_object(raw, diagnostics);
    std::visit(util::overloaded{
                   [](std::monostate) {},
                   [&](ir::AutNum& an) {
                     if (counts != nullptr) {
                       ++counts->aut_nums;
                       count_rules(an, *counts);
                     }
                     ir.aut_nums.emplace(an.asn, std::move(an));
                   },
                   [&](ir::AsSet& s) {
                     if (counts != nullptr) ++counts->as_sets;
                     ir.as_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::RouteSet& s) {
                     if (counts != nullptr) ++counts->route_sets;
                     ir.route_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::PeeringSet& s) {
                     if (counts != nullptr) ++counts->peering_sets;
                     ir.peering_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::FilterSet& s) {
                     if (counts != nullptr) ++counts->filter_sets;
                     ir.filter_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::RouteObject& r) {
                     if (counts != nullptr) ++counts->routes;
                     ir.routes.push_back(std::move(r));
                   },
               },
               parsed);
  }
}

ir::Ir parse_dump(std::string_view text, std::string_view source,
                  util::Diagnostics& diagnostics, IrrCounts* counts) {
  obs::Span span("irr.parse", source);
  if (const fp::Hit hit = fp::hit("irr.parse")) {
    if (hit.is_error()) throw std::runtime_error("irr.parse: " + hit.message);
    // Silent truncation at the parse layer: the lexer sees a shorter dump
    // and must still produce a clean (if smaller) object stream.
    if (hit.is_truncate()) text = text.substr(0, std::min(text.size(), hit.truncate_at));
  }
  ir::Ir ir;
  if (counts != nullptr) counts->bytes = text.size();
  parse_text_into(text, source, 0, ir, diagnostics, diagnostics, counts);
  return ir;
}

/// The serial reference pipeline: one source at a time, slurp → lex →
/// parse → merge.
LoadResult load_irrs(const std::vector<IrrSource>& sources,
                     const LoadOptions& options) {
  obs::Span load_span("irr.load");
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& bytes_read = registry.counter(
      "rpslyzer_loader_bytes_read_total", "Bytes read from IRR dump files");
  obs::Counter& objects_parsed = registry.counter(
      "rpslyzer_loader_objects_parsed_total", "RPSL objects parsed from IRR dumps");
  obs::Histogram& source_seconds = registry.histogram(
      "rpslyzer_loader_source_seconds", "Wall time loading one IRR source",
      obs::exponential_bounds(0.001, 4.0, 10));

  LoadResult result;
  RouteKeySet seen_routes;
  for (const auto& source : sources) {
    obs::Span source_span("irr.source", source.name);
    const auto source_start = std::chrono::steady_clock::now();
    IrrCounts counts;
    counts.name = source.name;
    SourceOutcome outcome;
    outcome.name = source.name;

    const auto degrade = [&](std::string detail) {
      outcome.status = SourceStatus::kDegraded;
      result.diagnostics.warning(util::DiagnosticKind::kOther, detail, source.name,
                                 {source.name, 0});
      obs::log_warn("loader", "source degraded",
                    {{"source", source.name}, {"reason", detail}});
      outcome.detail = std::move(detail);
    };
    // Quarantine: the dump exists but cannot be trusted; merging a prefix
    // of it would silently shrink the corpus, so none of it is merged and
    // the failure is recorded as a hard error (unlike a missing dump).
    const auto quarantine = [&](std::string detail) {
      outcome.status = SourceStatus::kQuarantined;
      result.diagnostics.error(util::DiagnosticKind::kOther,
                               "IRR dump quarantined: " + detail, source.name,
                               {source.name, 0});
      obs::log_error("loader", "source quarantined",
                     {{"source", source.name}, {"reason", detail}});
      outcome.detail = std::move(detail);
    };

    const auto finish = [&] {
      registry
          .counter("rpslyzer_loader_sources_total", "IRR source load outcomes",
                   {{"source", source.name}, {"status", to_string(outcome.status)}})
          .inc();
      source_seconds.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - source_start)
              .count());
      result.counts.push_back(std::move(counts));
      result.outcomes.push_back(std::move(outcome));
    };

    std::ifstream in;
    {
      obs::Span open_span("irr.open", source.name);
      if (const fp::Hit hit = fp::hit("irr.open"); hit && hit.is_error()) {
        degrade("IRR dump unavailable: injected open fault: " + hit.message);
        finish();
        continue;
      }
      std::error_code ec;
      const bool exists = std::filesystem::exists(source.path, ec);
      if (exists && !std::filesystem::is_regular_file(source.path, ec)) {
        quarantine("not a regular file: " + source.path.string());
        finish();
        continue;
      }
      in.open(source.path, std::ios::binary);
      if (!in) {
        degrade("IRR dump unavailable: " + source.path.string());
        finish();
        continue;
      }
    }
    std::string text;
    std::string read_error;
    bool read_ok;
    {
      obs::Span read_span("irr.read", source.name);
      read_ok = slurp(in, &text, &read_error);
    }
    bytes_read.inc(text.size());
    if (!read_ok) {
      quarantine("read failed mid-dump (" + read_error + "): " + source.path.string());
      finish();
      continue;
    }
    if (options.max_object_bytes > 0) {
      const std::size_t largest = largest_object_bytes(text);
      if (largest > options.max_object_bytes) {
        quarantine("pathological object of " + std::to_string(largest) +
                   " bytes (limit " + std::to_string(options.max_object_bytes) +
                   "): " + source.path.string());
        finish();
        continue;
      }
    }
    try {
      ir::Ir parsed = reference::parse_dump(text, source.name, result.diagnostics, &counts);
      const std::size_t raw_routes = parsed.routes.size();
      {
        obs::Span merge_span("irr.merge", source.name);
        merge_into(result.ir, std::move(parsed), &seen_routes);
      }
      result.raw_route_objects += raw_routes;
      objects_parsed.inc(counts.objects);
    } catch (const std::exception& e) {
      quarantine(std::string("exception mid-load: ") + e.what());
      counts = IrrCounts{};  // partial counts would misstate the census
      counts.name = source.name;
    }
    finish();
  }
  obs::log_info("loader", "load complete",
                {{"sources", sources.size()},
                 {"degraded", result.count_with(SourceStatus::kDegraded)},
                 {"quarantined", result.count_with(SourceStatus::kQuarantined)},
                 {"routes", result.ir.routes.size()},
                 {"aut_nums", result.ir.aut_nums.size()}});
  return result;
}

}  // namespace reference

class ParallelLoader : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rpslyzer-parallel-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    synth::SynthConfig config;
    config.scale = 0.05;
    config.seed = 11;
    synth::InternetGenerator generator(config);
    for (const auto& [name, text] : generator.irr_dumps()) {
      std::ofstream out(dir_ / (util::lower(name) + ".db"), std::ios::binary);
      out << text;
    }
  }
  void TearDown() override {
    fp::clear_all();
    std::filesystem::remove_all(dir_);
  }

  LoadResult load_with(unsigned threads, std::size_t shard_bytes) {
    LoadOptions options;
    options.threads = threads;
    options.shard_target_bytes = shard_bytes;
    return load_irrs(table1_sources(dir_), options);
  }

  LoadResult load_reference(const LoadOptions& options = {}) {
    return reference::load_irrs(table1_sources(dir_), options);
  }

  static void expect_identical(const LoadResult& serial, const LoadResult& parallel,
                               const std::string& label) {
    SCOPED_TRACE(label);
    EXPECT_TRUE(serial.ir == parallel.ir);
    EXPECT_EQ(serial.raw_route_objects, parallel.raw_route_objects);

    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(serial.outcomes[i].name, parallel.outcomes[i].name);
      EXPECT_EQ(serial.outcomes[i].status, parallel.outcomes[i].status);
      EXPECT_EQ(serial.outcomes[i].detail, parallel.outcomes[i].detail);
    }

    ASSERT_EQ(serial.counts.size(), parallel.counts.size());
    for (std::size_t i = 0; i < serial.counts.size(); ++i) {
      const IrrCounts& a = serial.counts[i];
      const IrrCounts& b = parallel.counts[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.objects, b.objects);
      EXPECT_EQ(a.aut_nums, b.aut_nums);
      EXPECT_EQ(a.routes, b.routes);
      EXPECT_EQ(a.imports, b.imports);
      EXPECT_EQ(a.exports, b.exports);
      EXPECT_EQ(a.as_sets, b.as_sets);
      EXPECT_EQ(a.route_sets, b.route_sets);
      EXPECT_EQ(a.peering_sets, b.peering_sets);
      EXPECT_EQ(a.filter_sets, b.filter_sets);
    }

    // Diagnostics must agree entry for entry, including line numbers (the
    // shard lexer offsets them) and ordering (the merge is deterministic).
    ASSERT_EQ(serial.diagnostics.all().size(), parallel.diagnostics.all().size());
    for (std::size_t i = 0; i < serial.diagnostics.all().size(); ++i) {
      const util::Diagnostic& a = serial.diagnostics.all()[i];
      const util::Diagnostic& b = parallel.diagnostics.all()[i];
      EXPECT_EQ(a.severity, b.severity) << "diagnostic " << i;
      EXPECT_EQ(a.kind, b.kind) << "diagnostic " << i;
      EXPECT_EQ(a.message, b.message) << "diagnostic " << i;
      EXPECT_EQ(a.object_key, b.object_key) << "diagnostic " << i;
      EXPECT_EQ(a.location, b.location) << "diagnostic " << i;
    }

    // The exported (serialized) index: byte-identical JSON.
    EXPECT_EQ(json::dump(ir::to_json(serial.ir)), json::dump(ir::to_json(parallel.ir)));
  }

  static constexpr unsigned kThreads[] = {1u, 2u, 8u};
  // Shard targets from "whole dump in one shard" down to one object per
  // shard (target 1 cuts at every blank-line boundary).
  static constexpr std::size_t kShardBytes[] = {std::size_t{1} << 20, std::size_t{4096},
                                                std::size_t{64}, std::size_t{1}};

  std::filesystem::path dir_;
};

TEST_F(ParallelLoader, ThreadsAndShardSizesAreByteIdentical) {
  const LoadResult serial = load_reference();
  ASSERT_GT(serial.ir.object_count(), 0u);
  for (unsigned threads : kThreads) {
    for (std::size_t shard_bytes : kShardBytes) {
      const LoadResult parallel = load_with(threads, shard_bytes);
      expect_identical(serial, parallel,
                       "threads=" + std::to_string(threads) +
                           " shard_bytes=" + std::to_string(shard_bytes));
    }
  }
}

TEST_F(ParallelLoader, IndexQueriesAgree) {
  const LoadResult serial = load_reference();
  const LoadResult parallel = load_with(8, 512);
  Index serial_index(serial.ir);
  Index parallel_index(parallel.ir);
  for (const auto& [asn, an] : serial.ir.aut_nums) {
    const auto a = serial_index.origins_of(asn);
    const auto b = parallel_index.origins_of(asn);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << asn;
  }
}

TEST_F(ParallelLoader, MissingAndExtraDumpsMatchSerial) {
  // Knock out two dumps (degraded) and corrupt one into a pathological
  // object (quarantined): every thread count must report the exact same
  // per-source outcomes and corpus as the reference.
  std::filesystem::remove(dir_ / "ripe.db");
  std::filesystem::remove(dir_ / "altdb.db");
  {
    std::ofstream out(dir_ / "radb.db", std::ios::binary);  // overwrite
    out << std::string(1u << 20, 'x') << ":\n";             // one endless pseudo-object
  }
  LoadOptions small_guard;
  small_guard.max_object_bytes = 256u << 10;  // far above any legit object
  const LoadResult serial = load_reference(small_guard);
  EXPECT_EQ(serial.count_with(SourceStatus::kDegraded), 2u);
  EXPECT_EQ(serial.count_with(SourceStatus::kQuarantined), 1u);
  for (unsigned threads : {1u, 4u}) {
    small_guard.threads = threads;
    small_guard.shard_target_bytes = 256;
    const LoadResult parallel = load_irrs(table1_sources(dir_), small_guard);
    expect_identical(serial, parallel,
                     "degraded+quarantined corpus, threads=" + std::to_string(threads));
  }
}

// Failpoint injection: unbounded actions fire on every evaluation, so the
// reference and the pipeline observe the same faults regardless of worker
// scheduling (N* budgets would land nondeterministically — see the
// load_irrs contract).
TEST_F(ParallelLoader, FailpointInjectionMatchesSerial) {
  const struct {
    const char* spec;
    std::size_t quarantined;
  } cases[] = {
      {"irr.read=error", 13u},
      {"irr.read=truncate(1000)", 13u},
      {"irr.parse=error", 13u},
      {"irr.parse=truncate(4096)", 0u},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    std::string error;
    ASSERT_TRUE(fp::configure(c.spec, &error)) << error;
    const LoadResult serial = load_reference();
    fp::clear_all();
    ASSERT_TRUE(fp::configure(c.spec, &error)) << error;
    for (unsigned threads : kThreads) {
      for (std::size_t shard_bytes : kShardBytes) {
        const LoadResult parallel = load_with(threads, shard_bytes);
        expect_identical(serial, parallel,
                         "threads=" + std::to_string(threads) +
                             " shard_bytes=" + std::to_string(shard_bytes));
        EXPECT_EQ(parallel.count_with(SourceStatus::kQuarantined), c.quarantined);
      }
    }
    fp::clear_all();
  }
}

// A fault tripping in one source's shards must quarantine only that source:
// the blast radius of a shard exception is the source, never the load.
TEST_F(ParallelLoader, ShardFaultQuarantinesOnlyItsSource) {
  {
    std::ofstream out(dir_ / "ripe.db", std::ios::binary);  // overwrite
    out << std::string(1u << 20, 'y') << ":\n";
  }
  LoadOptions options;
  options.threads = 4;
  options.shard_target_bytes = 128;
  options.max_object_bytes = 256u << 10;
  const LoadResult result = load_irrs(table1_sources(dir_), options);
  EXPECT_EQ(result.count_with(SourceStatus::kQuarantined), 1u);
  EXPECT_EQ(result.outcome("RIPE")->status, SourceStatus::kQuarantined);
  EXPECT_EQ(result.count_with(SourceStatus::kOk), 12u);
  EXPECT_GT(result.ir.object_count(), 0u);
}

TEST_F(ParallelLoader, ParseDumpParallelMatchesParseDump) {
  // parse_dump at any worker count and shard size against the reference
  // parse of one dump text, exercising the counts and diagnostics plumbing
  // without load_irrs.
  std::string text;
  {
    std::ifstream in(dir_ / "radb.db", std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = std::move(buffer).str();
  }
  util::Diagnostics serial_diag;
  IrrCounts serial_counts;
  const ir::Ir serial = reference::parse_dump(text, "RADB", serial_diag, &serial_counts);
  for (unsigned threads : {1u, 4u}) {
    for (std::size_t shard_bytes : {std::size_t{1}, std::size_t{777}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      util::Diagnostics parallel_diag;
      IrrCounts parallel_counts;
      const ir::Ir parallel =
          parse_dump(text, "RADB", parallel_diag, &parallel_counts, threads, shard_bytes);
      EXPECT_TRUE(serial == parallel) << shard_bytes;
      EXPECT_EQ(serial_counts.objects, parallel_counts.objects);
      EXPECT_EQ(serial_counts.bytes, parallel_counts.bytes);
      EXPECT_EQ(serial_counts.routes, parallel_counts.routes);
      ASSERT_EQ(serial_diag.all().size(), parallel_diag.all().size());
    }
  }
}

// ---------------------------------------------------------------------------
// The cross-dump shard queue: one queue over all sources, with each dump cut
// by the jump-ahead cut. The checks below compare it against the serial
// reference above and against the line-scan cut it replaced.

namespace reference {

/// rpsl::shard_objects as it stood before the jump-ahead cut, kept
/// verbatim: a line-by-line scan that cuts after the first blank line
/// ending at least `target_bytes` past the shard start.
std::vector<rpsl::Shard> shard_objects(std::string_view text, std::size_t target_bytes) {
  std::vector<rpsl::Shard> shards;
  if (text.empty()) return shards;
  if (target_bytes == 0) target_bytes = 1;

  std::size_t shard_start = 0;       // byte offset of the current shard
  std::size_t shard_first_line = 0;  // lines before the current shard
  std::size_t lines_seen = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    const std::size_t line_end = eol == std::string_view::npos ? text.size() : eol;
    const std::size_t next = eol == std::string_view::npos ? text.size() : eol + 1;
    ++lines_seen;
    // The lexer treats a line as an object separator iff it is empty after
    // trimming; trim's whitespace set includes '\r', so CRLF blank lines
    // and whitespace-only lines qualify here exactly as they do there.
    const bool blank = util::trim(text.substr(pos, line_end - pos)).empty();
    if (blank && next - shard_start >= target_bytes && next < text.size()) {
      shards.push_back({text.substr(shard_start, next - shard_start), shard_first_line});
      shard_start = next;
      shard_first_line = lines_seen;
    }
    pos = next;
  }
  shards.push_back({text.substr(shard_start), shard_first_line});
  return shards;
}

}  // namespace reference

/// Rewrite one dump file of the fixture's corpus.
void write_dump(const std::filesystem::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::string read_dump(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

// Dumps of one shard and dumps of dozens, an empty dump, a dump without a
// trailing newline, and a quarantined source between two good ones: every
// worker count drains them through the one queue, and the result is the
// serial reference's, byte for byte.
TEST_F(ParallelLoader, CrossDumpQueueMatchesSerial) {
  {
    // TC keeps its first object only: one shard at every target.
    const std::string tc = read_dump(dir_ / "tc.db");
    write_dump(dir_ / "tc.db", tc.substr(0, tc.find("\n\n") + 2));
  }
  write_dump(dir_ / "idnic.db", "");
  {
    std::string jpirr = read_dump(dir_ / "jpirr.db");
    while (!jpirr.empty() && util::is_space(jpirr.back())) jpirr.pop_back();
    write_dump(dir_ / "jpirr.db", jpirr);
  }
  // RIPE, between LACNIC and IDNIC, loses its separators and is quarantined.
  write_dump(dir_ / "ripe.db", std::string(300u << 10, 'z') + ":\n");

  LoadOptions options;
  options.max_object_bytes = 256u << 10;
  const LoadResult serial = load_reference(options);
  ASSERT_EQ(serial.outcome("RIPE")->status, SourceStatus::kQuarantined);
  ASSERT_EQ(serial.outcome("LACNIC")->status, SourceStatus::kOk);
  ASSERT_EQ(serial.outcome("IDNIC")->status, SourceStatus::kOk);
  ASSERT_EQ(serial.count_with(SourceStatus::kOk), 12u);
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    for (std::size_t shard_bytes : {std::size_t{1} << 20, std::size_t{16} << 10,
                                    std::size_t{4096}, std::size_t{64}, std::size_t{1}}) {
      options.threads = threads;
      options.shard_target_bytes = shard_bytes;
      expect_identical(serial, load_irrs(table1_sources(dir_), options),
                       "threads=" + std::to_string(threads) +
                           " shard_bytes=" + std::to_string(shard_bytes));
    }
  }
}

// "irr.parse" and "irr.merge" fire once per source in priority order at
// every worker count, so an N* budget lands on the same sources as in the
// serial reference.
TEST_F(ParallelLoader, CountedParseAndMergeFaultsLandInPriorityOrder) {
  {
    // A first dump far larger than the rest is still being read while
    // later ones finish theirs: a budget spent in read order would land on
    // the wrong sources.
    const std::string apnic = read_dump(dir_ / "apnic.db");
    std::string big;
    for (int copy = 0; copy < 40; ++copy) big += apnic + "\n";
    write_dump(dir_ / "apnic.db", big);
  }
  for (const char* spec :
       {"irr.parse=2*error", "irr.parse=3*truncate(2048)", "irr.merge=1*error"}) {
    SCOPED_TRACE(spec);
    std::string error;
    ASSERT_TRUE(fp::configure(spec, &error)) << error;
    const LoadResult serial = load_reference();
    fp::clear_all();
    for (unsigned threads : {1u, 3u, 8u}) {
      ASSERT_TRUE(fp::configure(spec, &error)) << error;
      expect_identical(serial, load_with(threads, 4096),
                       "threads=" + std::to_string(threads));
      fp::clear_all();
    }
  }
}

TEST_F(ParallelLoader, EmptyAndUnterminatedDumpsParseAsReference) {
  for (const std::string& text :
       {std::string(), std::string("\n\n"), std::string("aut-num: AS1"),
        std::string("aut-num: AS1\nas-name: A\n\nroute: 10.0.0.0/8\norigin: AS1"),
        std::string("aut-num: AS1\r\n\r\nbogus line\r\n\r\naut-num: AS2\r\n")}) {
    util::Diagnostics serial_diag;
    IrrCounts serial_counts;
    const ir::Ir serial = reference::parse_dump(text, "TEST", serial_diag, &serial_counts);
    for (unsigned threads : {1u, 3u}) {
      for (std::size_t shard_bytes : {std::size_t{1}, std::size_t{5}, std::size_t{1} << 20}) {
        SCOPED_TRACE("text=" + json::dump(json::Value(text)) +
                     " threads=" + std::to_string(threads) +
                     " shard_bytes=" + std::to_string(shard_bytes));
        util::Diagnostics diag;
        IrrCounts counts;
        const ir::Ir parsed = parse_dump(text, "TEST", diag, &counts, threads, shard_bytes);
        EXPECT_TRUE(serial == parsed);
        EXPECT_EQ(serial_counts.objects, counts.objects);
        EXPECT_EQ(serial_counts.bytes, counts.bytes);
        ASSERT_EQ(serial_diag.all().size(), diag.all().size());
        for (std::size_t i = 0; i < diag.all().size(); ++i) {
          EXPECT_EQ(serial_diag.all()[i].message, diag.all()[i].message);
          EXPECT_EQ(serial_diag.all()[i].location, diag.all()[i].location);
        }
      }
    }
  }
}

// The jump-ahead cut against the line scan it replaced, on seeded random
// texts: CRLF and whitespace-only blank lines, runs of blanks, objects
// larger than the target, and texts with and without a final newline.
TEST(ShardCut, JumpAheadCutMatchesLineScan) {
  std::mt19937 rng(20261020u);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  const auto eol = [&](std::string& text) { text += pick(0, 2) == 0 ? "\r\n" : "\n"; };
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    const std::size_t paragraphs = pick(0, 12);
    for (std::size_t p = 0; p < paragraphs; ++p) {
      // Mostly short objects, sometimes one far larger than any target.
      const std::size_t lines = pick(0, 9) == 0 ? pick(20, 60) : pick(1, 4);
      for (std::size_t l = 0; l < lines; ++l) {
        switch (pick(0, 5)) {
          case 0:
            text += "# comment";
            break;
          case 1:
            text += "  continued value";
            break;
          default:
            text += "attr-" + std::to_string(pick(0, 99)) + ": " +
                    std::string(pick(0, 40), 'v');
        }
        eol(text);
      }
      const std::size_t blanks = pick(0, 3) == 0 ? pick(2, 5) : 1;
      for (std::size_t b = 0; b < blanks; ++b) {
        text += std::string(pick(0, 3) == 0 ? pick(1, 3) : 0, pick(0, 1) == 0 ? ' ' : '\t');
        eol(text);
      }
    }
    if (pick(0, 2) == 0 && !text.empty()) text.pop_back();  // no final newline
    for (std::size_t target :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, pick(3, 64), pick(64, 512),
          text.size(), text.size() + 1}) {
      const std::vector<rpsl::Shard> want = reference::shard_objects(text, target);
      const std::vector<rpsl::Shard> got = rpsl::shard_objects(text, target);
      ASSERT_EQ(want.size(), got.size()) << "round " << round << " target " << target;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i].text.data(), got[i].text.data()) << "round " << round << " shard " << i;
        ASSERT_EQ(want[i].text.size(), got[i].text.size()) << "round " << round << " shard " << i;
        ASSERT_EQ(want[i].line_offset, got[i].line_offset) << "round " << round << " shard " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rpslyzer::irr
