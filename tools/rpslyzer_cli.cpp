// rpslyzer — command-line front end to the library.
//
//   rpslyzer generate <dir> [scale] [seed]   synthesize a corpus to <dir>
//   rpslyzer parse <dir>                     parse dumps, print a census
//   rpslyzer lint <dir>                      lint the corpus
//   rpslyzer export <dir> <out.json>         export the IR as JSON
//   rpslyzer report <dir> <prefix> <asn...>  verify one route, print report
//   rpslyzer verify <dir>                    verify collector-*.dump files
//   rpslyzer query <dir> <!query...>         evaluate IRRd queries, print framed
//   rpslyzer compile <dir> --out <snap>      compile + write a snapshot file
//   rpslyzer journal synth|apply <dir> ...   generate / apply NRTM delta journals
//   rpslyzer serve <dir>|--synth [flags]     run the rpslyzerd query daemon
//
// <dir> holds <irr>.db dumps (Table 1 names) plus relationships.txt and,
// for `verify`, collector-<n>.dump files — exactly what `generate` writes.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "rpslyzer/delta/equiv.hpp"
#include "rpslyzer/delta/follower.hpp"
#include "rpslyzer/lint/classify.hpp"
#include "rpslyzer/lint/linter.hpp"
#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/persist/cache.hpp"
#include "rpslyzer/persist/snapshot_io.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/repl/edge.hpp"
#include "rpslyzer/repl/publisher.hpp"
#include "rpslyzer/report/aggregate.hpp"
#include "rpslyzer/report/render.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/server/server.hpp"
#include "rpslyzer/stats/census.hpp"
#include "rpslyzer/synth/churn.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/verify/parallel.hpp"

namespace {

using namespace rpslyzer;

int usage() {
  std::fprintf(stderr,
               "usage: rpslyzer [--log-level L] [--log-json] <command> ...\n"
               "  generate <dir> [scale] [seed]   synthesize an IRR+BGP corpus\n"
               "  parse <dir>                     parse dumps and print a census\n"
               "  load <dir> [--threads N] [--shard-kb N] [--trace-out F]\n"
               "                                  load + index, print per-stage timings\n"
               "                                  (--threads 1 = one worker; default: all cores)\n"
               "  lint <dir>                      lint the corpus\n"
               "  export <dir> <out.json>         export the IR as JSON\n"
               "  report <dir> <prefix> <asn...>  verify one route (Appendix-C style)\n"
               "  verify <dir> [--threads N]      verify collector-*.dump files\n"
               "                                  (--threads 0 = all cores)\n"
               "  query <dir> <!query...>         evaluate IRRd queries, print framed\n"
               "  compile <dir> --out <snap> [--threads N]\n"
               "                                  parse + compile, write a relocatable\n"
               "                                  snapshot file loadable via mmap\n"
               "  journal synth <dir> --out JDIR [--batches N] [--ops M] [--seed S]\n"
               "                [--start-serial S] [--protect ASN]\n"
               "                                  emit seeded NRTM churn batches against\n"
               "                                  the corpus (--protect: never touch that\n"
               "                                  origin's routes; repeatable)\n"
               "  journal apply <dir> --journal JDIR [--verify-full] [--threads N]\n"
               "                                  apply batches through the incremental\n"
               "                                  delta pipeline (--verify-full: after\n"
               "                                  every batch, compare byte-for-byte\n"
               "                                  against a from-scratch compile)\n"
               "  serve <dir>|--synth|--snapshot <snap> [flags]\n"
               "                                  run the rpslyzerd query daemon\n"
               "    serve flags: [--port N] [--threads N] [--cache N] [--max-conns N]\n"
               "                 [--idle-ms N] [--stats-ms N] [--deadline-ms N]\n"
               "                 [--max-out-kb N] [--stall-grace-ms N] [--retry-ms N]\n"
               "                 [--retry-max-ms N] [--scale F] [--seed N]\n"
               "                 [--metrics-file PATH] [--metrics-file-ms N]\n"
               "                 [--snapshot-cache DIR]\n"
               "                 [--journal JDIR [--journal-poll-ms N]]\n"
               "                                  follow an NRTM journal directory: each\n"
               "                                  batch publishes a new generation via\n"
               "                                  the incremental delta pipeline (needs a\n"
               "                                  corpus <dir>; default poll 1000 ms)\n"
               "                 [--slow-ms N]    copy queries slower than N ms into the\n"
               "                                  `!slow` log (0 = off)\n"
               "                 [--flight-cap N] flight-recorder ring capacity (0 = off;\n"
               "                                  default 4096; `!trace <id>` replays one\n"
               "                                  query's stage timings)\n"
               "                 (--threads also sets load/reload ingestion parallelism;\n"
               "                  --snapshot serves a compile --out file, --snapshot-cache\n"
               "                  keys mmap-cached generations by corpus content)\n"
               "    replication: [--publish [--chunk-kb N]]   announce + stream snapshot\n"
               "                                              generations to edges\n"
               "                 [--origin HOST:PORT --repl-dir DIR [--edge-id NAME]\n"
               "                  [--poll-ms N] [--heartbeat-ms N] [--origin-timeout-ms N]]\n"
               "                                              serve snapshots replicated\n"
               "                                              from an origin (no local\n"
               "                                              corpus; DIR keeps last-good)\n"
               "  log levels: debug info warn error off (also via RPSLYZER_LOG)\n");
  return 2;
}

// Flag values. Numbers parse strictly: the whole token must be a decimal
// integer inside the flag's range, so `--threads -1` or `--port 70000` is
// refused with usage before anything starts instead of wrapping to a huge
// or unrelated value.
constexpr std::uint64_t kMaxThreads = 1024;
constexpr std::uint64_t kMaxMs = 7ull * 24 * 3600 * 1000;  // one week
constexpr double kMaxScale = 1000;

/// Takes the token after argv[i] (advancing i) as that flag's value.
template <class T>
bool flag_text(int argc, char** argv, int& i, T* out) {
  if (i + 1 >= argc) return false;
  *out = argv[++i];
  return true;
}

/// `value` as an integer in [lo, hi]; `what` names it in the refusal.
template <class T>
bool parse_number(const char* what, const char* value, std::uint64_t lo, std::uint64_t hi,
                  T* out) {
  const std::optional<std::uint64_t> v = util::parse_u64(value);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr, "%s: expected an integer in [%llu, %llu], got '%s'\n", what,
                 static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi),
                 value);
    return false;
  }
  *out = static_cast<T>(*v);
  return true;
}

/// flag_text() for an integer flag in [lo, hi].
template <class T>
bool flag_number(int argc, char** argv, int& i, std::uint64_t lo, std::uint64_t hi, T* out) {
  const char* flag = argv[i];
  return parse_number(flag, i + 1 < argc ? argv[++i] : "", lo, hi, out);
}

/// A synthetic-corpus scale factor in (0, kMaxScale].
bool parse_scale(const char* value, double* out) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(v > 0 && v <= kMaxScale)) {
    std::fprintf(stderr, "scale: expected a number in (0, %g], got '%s'\n", kMaxScale, value);
    return false;
  }
  *out = v;
  return true;
}

Rpslyzer load(const std::filesystem::path& dir, const irr::LoadOptions& options = {}) {
  return Rpslyzer::from_files(dir, dir / "relationships.txt", options);
}

// from_files() treats a missing directory as an empty corpus, which is the
// wrong default for a daemon: `serve /typo` would happily answer `D` to every
// query. Require at least one dump file before loading.
bool corpus_dir_ok(const std::filesystem::path& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".db") return true;
  }
  std::fprintf(stderr, "%s: %s\n", dir.c_str(),
               ec ? "cannot read directory" : "no .db dump files found");
  return false;
}

std::optional<std::string> read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

// What a CorpusLoader returns must own what it points into: Rpslyzer's
// memoized snapshot aliases the bundle, so the pointer shares the bundle.
std::shared_ptr<const compile::CompiledPolicySnapshot> owned_snapshot(Rpslyzer lyzer) {
  auto owner = std::make_shared<Rpslyzer>(std::move(lyzer));
  auto snapshot = owner->snapshot();
  return {std::move(owner), snapshot.get()};
}

std::optional<std::string> read_relationships(const std::filesystem::path& dir,
                                              const char* who) {
  const std::filesystem::path path = dir / "relationships.txt";
  auto text = read_text_file(path);
  if (!text) std::fprintf(stderr, "%s: cannot read %s\n", who, path.c_str());
  return text;
}

// Dump texts in Table 1 priority order — what the delta pipeline's
// CorpusStore and the churn generator both catalog. Missing files degrade
// like the batch loader (skipped).
std::vector<std::pair<std::string, std::string>> read_dumps(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::string, std::string>> dumps;
  for (const irr::IrrSource& source : irr::table1_sources(dir)) {
    if (auto text = read_text_file(source.path)) {
      dumps.emplace_back(source.name, std::move(*text));
    }
  }
  return dumps;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 1) return usage();
  synth::SynthConfig config;
  if (argc >= 2 && !parse_scale(argv[1], &config.scale)) return usage();
  if (argc >= 3 && !parse_number("seed", argv[2], 0, UINT32_MAX, &config.seed)) return usage();
  synth::InternetGenerator generator(config);
  const std::size_t files = generator.write_to(argv[0]);
  std::printf("wrote %zu files to %s (%zu ASes, %zu aut-nums planned, %zu collectors)\n",
              files, argv[0], generator.topology().size(),
              generator.topology().size() - generator.plan().missing_aut_num.size(),
              generator.collector_peers().size());
  return 0;
}

int cmd_parse(int argc, char** argv) {
  if (argc < 1) return usage();
  Rpslyzer lyzer = load(argv[0]);
  std::printf("%-10s %9s %9s %9s %9s\n", "IRR", "aut-num", "route", "import", "export");
  for (const auto& counts : lyzer.irr_counts()) {
    std::printf("%-10s %9zu %9zu %9zu %9zu\n", counts.name.c_str(), counts.aut_nums,
                counts.routes, counts.imports, counts.exports);
  }
  std::printf("\nmerged corpus: %zu objects (%zu aut-nums, %zu routes after dedup)\n",
              lyzer.ir().object_count(), lyzer.ir().aut_nums.size(),
              lyzer.ir().routes.size());
  stats::ErrorCensus errors = stats::ErrorCensus::compute(lyzer.diagnostics(), lyzer.ir());
  std::printf("diagnostics: %zu syntax errors, %zu invalid as-set names, %zu invalid "
              "route-set names\n",
              errors.syntax_errors, errors.invalid_as_set_names,
              errors.invalid_route_set_names);
  auto classes = lint::histogram(lint::classify_all(lyzer.ir()));
  std::printf("usage classes:");
  for (const auto& [cls, count] : classes) {
    std::printf("  %s=%zu", lint::to_string(cls), count);
  }
  std::printf("\n");
  return 0;
}

// `load` is the pipeline under a stopwatch: every stage the loader and
// indexer run is wrapped in an obs::Span, so this prints a per-stage
// wall/CPU table and (with --trace-out) writes the same spans as a
// chrome://tracing JSON file for flame-style inspection.
int cmd_load(int argc, char** argv) {
  if (argc < 1) return usage();
  std::string dir;
  std::string trace_out;
  irr::LoadOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace-out") {
      if (!flag_text(argc, argv, i, &trace_out)) return usage();
    } else if (arg == "--threads") {
      if (!flag_number(argc, argv, i, 0, kMaxThreads, &options.threads)) return usage();
    } else if (arg == "--shard-kb") {
      std::size_t kb = 0;
      if (!flag_number(argc, argv, i, 1, 1 << 20, &kb)) return usage();
      options.shard_target_bytes = kb * 1024;
    } else if (!arg.empty() && arg.front() != '-' && dir.empty()) {
      dir = arg;
    } else {
      std::fprintf(stderr, "load: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (dir.empty()) return usage();
  if (!corpus_dir_ok(dir)) return 1;

  obs::Tracer::global().set_enabled(true);
  {
    Rpslyzer lyzer = load(dir, options);
    lyzer.index().prewarm();
    std::printf("loaded %zu objects (%zu aut-nums, %zu routes) from %s\n",
                lyzer.ir().object_count(), lyzer.ir().aut_nums.size(),
                lyzer.ir().routes.size(), dir.c_str());
  }
  obs::Tracer::global().set_enabled(false);

  std::fputs(obs::Tracer::global().summary_table().c_str(), stdout);
  if (!trace_out.empty()) {
    std::string error;
    if (!obs::Tracer::global().write_chrome_trace(trace_out, &error)) {
      std::fprintf(stderr, "load: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %zu trace spans to %s (open in chrome://tracing)\n",
                obs::Tracer::global().records().size(), trace_out.c_str());
  }
  return 0;
}

int cmd_lint(int argc, char** argv) {
  if (argc < 1) return usage();
  Rpslyzer lyzer = load(argv[0]);
  auto findings = lint::lint(lyzer.ir(), lyzer.index());
  std::fputs(lint::render(findings).c_str(), stdout);
  std::printf("%zu findings\n", findings.size());
  return findings.empty() ? 0 : 1;
}

int cmd_export(int argc, char** argv) {
  if (argc < 2) return usage();
  Rpslyzer lyzer = load(argv[0]);
  std::ofstream out(argv[1], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  const std::string text = json::dump_pretty(lyzer.export_ir());
  out << text;
  std::printf("exported %zu objects to %s (%zu bytes)\n", lyzer.ir().object_count(),
              argv[1], text.size());
  return 0;
}

int cmd_report(int argc, char** argv) {
  if (argc < 2) return usage();
  Rpslyzer lyzer = load(argv[0]);
  auto prefix = net::Prefix::parse(argv[1]);
  if (!prefix) {
    std::fprintf(stderr, "bad prefix: %s\n", argv[1]);
    return 1;
  }
  bgp::Route route;
  route.prefix = *prefix;
  for (int i = 2; i < argc; ++i) {
    std::string_view token = argv[i];
    if (token.starts_with("AS") || token.starts_with("as")) token.remove_prefix(2);
    auto asn = util::parse_u32(token);
    if (!asn) {
      std::fprintf(stderr, "bad ASN: %s\n", argv[i]);
      return 1;
    }
    route.path.push_back(*asn);
  }
  route.path = bgp::strip_prepends(route.path);
  if (route.path.size() < 2) {
    std::fprintf(stderr, "need an AS path with at least two ASes\n");
    return 1;
  }
  std::fputs(lyzer.verifier().report(route).c_str(), stdout);
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 1) return usage();
  std::filesystem::path dir;
  unsigned threads = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads") {
      if (!flag_number(argc, argv, i, 0, kMaxThreads, &threads)) return usage();
    } else if (!arg.empty() && arg.front() != '-' && dir.empty()) {
      dir = arg;
    } else {
      std::fprintf(stderr, "verify: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (dir.empty()) return usage();
  Rpslyzer lyzer = load(dir);
  report::Aggregator agg;
  bgp::DumpStats dump_stats;
  std::size_t dumps = 0;
  std::vector<bgp::Route> routes;
  for (std::size_t i = 0;; ++i) {
    std::ifstream in(dir / ("collector-" + std::to_string(i) + ".dump"), std::ios::binary);
    if (!in) break;
    ++dumps;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = std::move(buffer).str();
    for (auto& route : bgp::parse_table_dump(text, &dump_stats, threads)) {
      routes.push_back(std::move(route));
    }
  }
  if (dumps == 0) {
    std::fprintf(stderr, "no collector-*.dump files under %s\n", dir.string().c_str());
    return 1;
  }
  const std::vector<std::vector<verify::HopCheck>> checks =
      verify::verify_routes_parallel(lyzer.snapshot(), routes, {}, threads);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    agg.add(routes[i], checks[i]);
  }
  const report::PerAs combined = agg.as_combined();
  report::StatusCounts totals;
  for (const auto& [asn, counts] : combined) totals.merge(counts);
  std::printf("%zu routes, %zu checks from %zu dumps\n", agg.total_routes(),
              agg.total_checks(), dumps);
  std::printf("%s\n", report::render_composition(totals).c_str());
  std::vector<report::StatusCounts> per_as;
  for (const auto& [asn, counts] : combined) per_as.push_back(counts);
  std::fputs(report::render_stacked(per_as).c_str(), stdout);
  return 0;
}

int cmd_query(int argc, char** argv) {
  if (argc < 2) return usage();
  if (!corpus_dir_ok(argv[0])) return 1;
  Rpslyzer lyzer = load(argv[0]);
  query::QueryEngine engine(*lyzer.snapshot());
  for (int i = 1; i < argc; ++i) {
    const std::string response = engine.evaluate(argv[i]);
    std::fwrite(response.data(), 1, response.size(), stdout);
  }
  return 0;
}

// `compile` is the write half of snapshot persistence: parse + compile once,
// then serialize the compiled snapshot into a relocatable arena file that
// `serve --snapshot` (or the --snapshot-cache generation cache) loads back
// with a single mmap instead of repeating the whole pipeline.
int cmd_compile(int argc, char** argv) {
  std::filesystem::path dir;
  std::filesystem::path out;
  irr::LoadOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out") {
      if (!flag_text(argc, argv, i, &out)) return usage();
    } else if (arg == "--threads") {
      if (!flag_number(argc, argv, i, 0, kMaxThreads, &options.threads)) return usage();
    } else if (!arg.empty() && arg.front() != '-' && dir.empty()) {
      dir = arg;
    } else {
      std::fprintf(stderr, "compile: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (dir.empty() || out.empty()) return usage();
  if (!corpus_dir_ok(dir)) return 1;
  try {
    Rpslyzer lyzer = load(dir, options);
    auto snapshot = lyzer.snapshot();
    const std::uint64_t bytes = persist::write_snapshot(*snapshot, out);
    std::printf("wrote %s (%llu bytes, build-id %llu, %zu interned symbols, "
                "%zu trie nodes)\n",
                out.c_str(), static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(snapshot->build_id()),
                snapshot->interned_symbols(), snapshot->trie_nodes());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compile: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_journal_synth(const std::filesystem::path& dir, int argc, char** argv) {
  std::string out_dir;
  std::size_t batches = 10;
  synth::ChurnConfig churn_config;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out") {
      if (!flag_text(argc, argv, i, &out_dir)) return usage();
    } else if (arg == "--batches") {
      if (!flag_number(argc, argv, i, 1, 1'000'000, &batches)) return usage();
    } else if (arg == "--ops") {
      if (!flag_number(argc, argv, i, 1, 1'000'000, &churn_config.ops_per_batch)) return usage();
    } else if (arg == "--seed") {
      if (!flag_number(argc, argv, i, 0, UINT32_MAX, &churn_config.seed)) return usage();
    } else if (arg == "--start-serial") {
      if (!flag_number(argc, argv, i, 1, UINT64_MAX / 2, &churn_config.start_serial)) {
        return usage();
      }
    } else if (arg == "--protect") {
      std::string_view asn;
      if (!flag_text(argc, argv, i, &asn)) return usage();
      if (util::istarts_with(asn, "AS")) asn.remove_prefix(2);
      const auto origin = util::parse_u32(asn);
      if (!origin) return usage();
      churn_config.protect_origins.insert(*origin);
    } else {
      std::fprintf(stderr, "journal synth: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (out_dir.empty() || batches == 0) return usage();
  if (!corpus_dir_ok(dir)) return 1;
  std::map<std::string, std::string> dumps;
  for (auto& [name, text] : read_dumps(dir)) dumps.emplace(name, std::move(text));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  synth::ChurnGenerator churn(dumps, churn_config);
  for (std::size_t b = 0; b < batches; ++b) {
    const delta::JournalBatch batch = churn.next_batch();
    const std::filesystem::path path =
        std::filesystem::path(out_dir) / delta::journal_file_name(batch.first_serial);
    // Write via tmp + rename so a concurrent follower never sees a torn file.
    const std::filesystem::path tmp = path.string() + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out << delta::render_journal(batch);
      if (!out) {
        std::fprintf(stderr, "journal synth: cannot write %s\n", tmp.c_str());
        return 1;
      }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::fprintf(stderr, "journal synth: rename %s: %s\n", tmp.c_str(),
                   ec.message().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu ops, serials %llu..%llu)\n", path.c_str(), batch.ops.size(),
                static_cast<unsigned long long>(batch.first_serial),
                static_cast<unsigned long long>(batch.last_serial));
  }
  return 0;
}

int cmd_journal_apply(const std::filesystem::path& dir, int argc, char** argv) {
  std::string journal_dir;
  bool verify_full = false;
  irr::LoadOptions load_options;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--journal") {
      if (!flag_text(argc, argv, i, &journal_dir)) return usage();
    } else if (arg == "--verify-full") {
      verify_full = true;
    } else if (arg == "--threads") {
      if (!flag_number(argc, argv, i, 0, kMaxThreads, &load_options.threads)) return usage();
    } else {
      std::fprintf(stderr, "journal apply: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (journal_dir.empty()) return usage();
  if (!corpus_dir_ok(dir)) return 1;
  const auto relationships = read_relationships(dir, "journal apply");
  if (!relationships) return 1;
  const auto files = delta::list_journal_files(journal_dir);
  if (files.empty()) {
    std::fprintf(stderr, "journal apply: no .nrtm batch files in %s\n",
                 journal_dir.c_str());
    return 1;
  }
  try {
    auto pipeline =
        std::make_shared<delta::DeltaPipeline>(read_dumps(dir), *relationships);
    for (const std::filesystem::path& path : files) {
      const auto text = read_text_file(path);
      if (!text) {
        std::fprintf(stderr, "journal apply: cannot read %s\n", path.c_str());
        return 1;
      }
      std::string parse_error;
      const auto batch = delta::parse_journal(*text, &parse_error);
      if (!batch) {
        std::fprintf(stderr, "journal apply: %s: %s\n", path.c_str(),
                     parse_error.c_str());
        return 1;
      }
      const delta::ApplyResult result = pipeline->apply(*batch);
      if (result.refused) {
        std::fprintf(stderr, "journal apply: %s refused: %s\n", path.c_str(),
                     result.error.c_str());
        return 1;
      }
      const auto generation = pipeline->current();
      std::printf("%s: serials %llu..%llu ops=%zu skipped=%zu dirty=%zu gen=%llu%s\n",
                  path.filename().c_str(),
                  static_cast<unsigned long long>(batch->first_serial),
                  static_cast<unsigned long long>(batch->last_serial),
                  result.ops_applied, result.ops_skipped, result.dirty_objects,
                  static_cast<unsigned long long>(generation->number),
                  generation->stats.full_rebuild ? " (full rebuild)" : "");
      if (verify_full && result.applied) {
        // Reference side: from-scratch compile of the mutated corpus through
        // the ordinary batch loader. Byte equality here is the pipeline's
        // whole correctness contract.
        const auto reference = owned_snapshot(Rpslyzer::from_texts(
            pipeline->store().source_texts(), *relationships, load_options));
        const delta::EquivalenceResult eq =
            delta::compare_snapshots(pipeline->current_snapshot(), reference);
        if (!eq.equal) {
          std::fprintf(stderr,
                       "journal apply: %s: incremental snapshot diverged from full "
                       "compile (%zu/%zu probes mismatched)\n%s\n",
                       path.c_str(), eq.mismatches, eq.probes,
                       eq.first_mismatch.c_str());
          return 1;
        }
        std::printf("  equiv ok: %zu probes, digest %016llx\n", eq.probes,
                    static_cast<unsigned long long>(eq.digest_left));
      }
    }
    std::printf("%s\n", pipeline->stats_line().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "journal apply: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_journal(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view mode = argv[0];
  const std::filesystem::path dir = argv[1];
  if (mode == "synth") return cmd_journal_synth(dir, argc - 2, argv + 2);
  if (mode == "apply") return cmd_journal_apply(dir, argc - 2, argv + 2);
  return usage();
}

// `serve` wires signals straight into the daemon: SIGINT/SIGTERM drain and
// stop, SIGHUP reloads the corpus (both entry points are async-signal-safe).
server::Server* g_server = nullptr;

void on_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

void on_hup_signal(int) {
  if (g_server != nullptr) g_server->request_reload();
}

int cmd_serve(int argc, char** argv) {
  std::string data_dir;
  std::string snapshot_path;
  std::string snapshot_cache_dir;
  delta::FollowerConfig follow;
  bool synthetic = false;
  synth::SynthConfig synth_config;
  synth_config.scale = 0.2;
  synth_config.seed = 7;
  bool publish = false;
  std::size_t chunk_kb = 256;
  std::string origin_spec;
  repl::EdgeConfig edge;
  edge.edge_id = "edge-" + std::to_string(static_cast<long>(::getpid()));
  std::chrono::milliseconds origin_timeout_ms{30000};
  server::ServerConfig config;
  config.stats_log_interval = std::chrono::milliseconds(10000);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto number = [&](std::uint64_t lo, std::uint64_t hi, auto* out) {
      return flag_number(argc, argv, i, lo, hi, out);
    };
    if (arg == "--synth") {
      synthetic = true;
    } else if (arg == "--snapshot") {
      if (!flag_text(argc, argv, i, &snapshot_path)) return usage();
    } else if (arg == "--snapshot-cache") {
      if (!flag_text(argc, argv, i, &snapshot_cache_dir)) return usage();
    } else if (arg == "--journal") {
      if (!flag_text(argc, argv, i, &follow.directory)) return usage();
    } else if (arg == "--journal-poll-ms") {
      if (!number(1, kMaxMs, &follow.poll_interval)) return usage();
    } else if (arg == "--port") {
      if (!number(0, 65535, &config.port)) return usage();
    } else if (arg == "--threads") {
      if (!number(0, kMaxThreads, &config.worker_threads)) return usage();
    } else if (arg == "--cache") {
      if (!number(0, 1 << 24, &config.cache_capacity)) return usage();
    } else if (arg == "--max-conns") {
      if (!number(1, 1 << 20, &config.max_connections)) return usage();
    } else if (arg == "--idle-ms") {
      if (!number(0, kMaxMs, &config.idle_timeout)) return usage();
    } else if (arg == "--stats-ms") {
      if (!number(0, kMaxMs, &config.stats_log_interval)) return usage();
    } else if (arg == "--deadline-ms") {
      if (!number(0, kMaxMs, &config.query_deadline)) return usage();
    } else if (arg == "--max-out-kb") {
      std::size_t kb = 0;
      if (!number(0, 1 << 22, &kb)) return usage();
      config.max_output_buffer_bytes = kb * 1024;
    } else if (arg == "--stall-grace-ms") {
      if (!number(0, kMaxMs, &config.write_stall_grace)) return usage();
    } else if (arg == "--retry-ms") {
      if (!number(0, kMaxMs, &config.reload_retry_initial)) return usage();
    } else if (arg == "--retry-max-ms") {
      if (!number(0, kMaxMs, &config.reload_retry_max)) return usage();
    } else if (arg == "--metrics-file") {
      if (!flag_text(argc, argv, i, &config.metrics_snapshot_path)) return usage();
    } else if (arg == "--metrics-file-ms") {
      if (!number(0, kMaxMs, &config.metrics_snapshot_interval)) return usage();
    } else if (arg == "--slow-ms") {
      if (!number(0, kMaxMs, &config.slow_threshold)) return usage();
    } else if (arg == "--flight-cap") {
      if (!number(0, 1 << 20, &config.flight_capacity)) return usage();
    } else if (arg == "--scale") {
      const char* v = nullptr;
      if (!flag_text(argc, argv, i, &v) || !parse_scale(v, &synth_config.scale)) return usage();
    } else if (arg == "--seed") {
      if (!number(0, UINT32_MAX, &synth_config.seed)) return usage();
    } else if (arg == "--publish") {
      publish = true;
    } else if (arg == "--chunk-kb") {
      if (!number(1, 1 << 16, &chunk_kb)) return usage();
    } else if (arg == "--origin") {
      if (!flag_text(argc, argv, i, &origin_spec)) return usage();
    } else if (arg == "--repl-dir") {
      if (!flag_text(argc, argv, i, &edge.state_dir)) return usage();
    } else if (arg == "--edge-id") {
      if (!flag_text(argc, argv, i, &edge.edge_id)) return usage();
    } else if (arg == "--poll-ms") {
      if (!number(1, kMaxMs, &edge.poll_interval)) return usage();
    } else if (arg == "--heartbeat-ms") {
      if (!number(1, kMaxMs, &edge.heartbeat_period)) return usage();
    } else if (arg == "--origin-timeout-ms") {
      if (!number(0, kMaxMs, &origin_timeout_ms)) return usage();
    } else if (!arg.empty() && arg.front() != '-' && data_dir.empty()) {
      data_dir = arg;
    } else {
      std::fprintf(stderr, "serve: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  // Exactly one corpus source: a data dir, --synth, or --snapshot — unless
  // this is a replication edge, whose only corpus source IS the origin.
  const int sources = (!data_dir.empty() ? 1 : 0) + (synthetic ? 1 : 0) +
                      (!snapshot_path.empty() ? 1 : 0);
  if (!origin_spec.empty()) {
    if (publish || sources != 0 || edge.state_dir.empty()) return usage();
  } else if (sources != 1) {
    return usage();
  }
  // --snapshot-cache only makes sense when reloads re-read a data dir.
  if (!snapshot_cache_dir.empty() && data_dir.empty()) return usage();
  // --journal follows a corpus dir through the incremental delta pipeline;
  // it subsumes reload-from-disk, so the snapshot cache does not apply.
  if (!follow.directory.empty() && (data_dir.empty() || !snapshot_cache_dir.empty())) {
    return usage();
  }

  // The daemon's --threads knob doubles as ingestion parallelism: the
  // initial load and every SIGHUP/!reload re-ingest through the sharded
  // parallel pipeline with the same thread budget as the worker pool.
  irr::LoadOptions load_options;
  load_options.threads = config.worker_threads;
  std::shared_ptr<server::GenerationSource> source;
  if (!snapshot_path.empty()) {
    // Every (re)load re-opens the file, so SIGHUP picks up a snapshot that
    // `compile --out` replaced in place; a corrupt or version-mismatched
    // file throws SnapshotError, which the server turns into "keep serving
    // the last good generation, degraded".
    source = std::make_shared<server::LoaderSource>(
        [snapshot_path] { return persist::open_snapshot(snapshot_path); });
  } else if (synthetic) {
    source = std::make_shared<server::LoaderSource>([synth_config, load_options] {
      synth::InternetGenerator generator(synth_config);
      std::vector<std::pair<std::string, std::string>> ordered;
      for (const auto& name : synth::irr_names()) {
        ordered.emplace_back(name, generator.irr_dumps().at(name));
      }
      return owned_snapshot(
          Rpslyzer::from_texts(ordered, generator.caida_serial1(), load_options));
    });
  } else if (!follow.directory.empty()) {
    // The delta pipeline owns the corpus; the follower feeds it batches and
    // each published batch reloads the daemon.
    if (!corpus_dir_ok(data_dir)) return 1;
    const auto relationships = read_relationships(data_dir, "rpslyzerd");
    if (!relationships) return 1;
    std::shared_ptr<delta::DeltaPipeline> pipeline;
    try {
      pipeline = std::make_shared<delta::DeltaPipeline>(read_dumps(data_dir),
                                                        *relationships);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rpslyzerd: delta pipeline: %s\n", e.what());
      return 1;
    }
    auto follower = std::make_shared<delta::JournalFollower>(pipeline, follow);
    // Catch up on any batches already on disk before the daemon starts, so
    // the first served generation reflects the full journal.
    follower->poll_now();
    source = std::move(follower);
  } else if (!origin_spec.empty()) {
    // The replication client keeps --repl-dir/current.rps in sync with the
    // origin; the daemon mmaps whatever generation is current.
    const std::size_t colon = origin_spec.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= origin_spec.size()) {
      std::fprintf(stderr, "serve: --origin expects HOST:PORT\n");
      return usage();
    }
    const auto port = util::parse_u32(std::string_view(origin_spec).substr(colon + 1));
    if (!port || *port == 0 || *port > 65535) {
      std::fprintf(stderr, "serve: --origin expects HOST:PORT with a port in [1, 65535]\n");
      return usage();
    }
    edge.origin_host = origin_spec.substr(0, colon);
    edge.origin_port = static_cast<std::uint16_t>(*port);
    // The poll interval already defines how stale an edge may run; letting
    // reconnect backoff grow past it would only delay recovery after an
    // origin outage. Cap at 2x poll so a returning origin is picked up
    // within ~3 poll intervals even from the deepest backoff step.
    edge.backoff_initial = std::min(edge.backoff_initial, edge.poll_interval);
    edge.backoff_max = edge.poll_interval * 2;
    auto client = std::make_shared<repl::ReplicationClient>(edge);
    const bool recovered = client->recover_last_good();
    client->start();
    if (!recovered && !client->wait_for_snapshot(origin_timeout_ms)) {
      std::fprintf(stderr,
                   "rpslyzerd: no last-good snapshot and the origin %s produced none within "
                   "%lld ms\n",
                   origin_spec.c_str(), static_cast<long long>(origin_timeout_ms.count()));
      return 1;
    }
    source = std::move(client);
  } else {
    source = std::make_shared<server::LoaderSource>(
        [data_dir, snapshot_cache_dir,
         load_options]() -> std::shared_ptr<const compile::CompiledPolicySnapshot> {
      if (!corpus_dir_ok(data_dir)) return nullptr;  // start + reload both bail
      std::optional<persist::SnapshotCache> cache;
      persist::CacheKey key;
      if (!snapshot_cache_dir.empty()) {
        // Generation cache: key the compiled artifact by the content of the
        // dumps + relationships file. Unchanged corpus → mmap the cached
        // snapshot; changed or absent/corrupt entry → full rebuild below,
        // then repopulate the entry for the next reload.
        cache.emplace(std::filesystem::path(snapshot_cache_dir));
        key = persist::derive_cache_key(data_dir, load_options);
        if (auto cached = cache->try_load(key)) return cached;
      }
      auto snapshot = owned_snapshot(load(data_dir, load_options));
      if (cache) cache->store(key, *snapshot);
      return snapshot;
    });
  }
  // Origin role: every successful (re)load republishes, deduplicated by
  // content checksum.
  if (publish) source = std::make_shared<repl::Publisher>(chunk_kb * 1024, std::move(source));

  server::Server daemon(config, source);
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "rpslyzerd: %s\n", error.c_str());
    return 1;
  }
  g_server = &daemon;
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGHUP, on_hup_signal);
  const std::string corpus_desc = !origin_spec.empty() ? "repl:" + origin_spec
                                  : synthetic          ? std::string("synthetic")
                                  : !snapshot_path.empty() ? snapshot_path
                                  : !follow.directory.empty()
                                      ? data_dir + " journal:" + follow.directory.string()
                                      : data_dir;
  std::printf("rpslyzerd listening on %s:%u (workers=%u cache=%zu corpus=%s%s)\n",
              config.bind_address.c_str(), daemon.port(), config.worker_threads,
              config.cache_capacity, corpus_desc.c_str(), publish ? " publish" : "");
  std::fflush(stdout);
  daemon.wait();
  const std::string final_stats = daemon.stats_payload();
  daemon.stop();
  g_server = nullptr;
  std::printf("%s\nrpslyzerd: shut down cleanly\n", final_stats.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global telemetry flags may precede the command; RPSLYZER_LOG already
  // configured the defaults, these override it.
  int first = 1;
  while (first < argc) {
    const std::string_view arg = argv[first];
    if (arg == "--log-json") {
      rpslyzer::obs::set_log_json(true);
      ++first;
    } else if (arg == "--log-level") {
      if (first + 1 >= argc) return usage();
      const auto level = rpslyzer::obs::parse_log_level(argv[first + 1]);
      if (!level) {
        std::fprintf(stderr, "bad --log-level %s\n", argv[first + 1]);
        return usage();
      }
      rpslyzer::obs::set_log_level(*level);
      first += 2;
    } else {
      break;
    }
  }
  if (argc - first < 1) return usage();
  const char* command = argv[first];
  argv += first + 1;
  argc -= first + 1;
  if (std::strcmp(command, "generate") == 0) return cmd_generate(argc, argv);
  if (std::strcmp(command, "parse") == 0) return cmd_parse(argc, argv);
  if (std::strcmp(command, "load") == 0) return cmd_load(argc, argv);
  if (std::strcmp(command, "lint") == 0) return cmd_lint(argc, argv);
  if (std::strcmp(command, "export") == 0) return cmd_export(argc, argv);
  if (std::strcmp(command, "report") == 0) return cmd_report(argc, argv);
  if (std::strcmp(command, "verify") == 0) return cmd_verify(argc, argv);
  if (std::strcmp(command, "query") == 0) return cmd_query(argc, argv);
  if (std::strcmp(command, "compile") == 0) return cmd_compile(argc, argv);
  if (std::strcmp(command, "journal") == 0) return cmd_journal(argc, argv);
  if (std::strcmp(command, "serve") == 0) return cmd_serve(argc, argv);
  return usage();
}
