// §3 performance claim: "RPSLyzer parses the 13 IRRs ... totaling 6.9 GiB
// of data, and exports the IR, all in under five minutes on an Apple M1."
// This bench measures parse and IR-export throughput on the synthetic dumps
// and extrapolates to the paper's corpus size. A custom main() additionally
// hand-times the production load (irr::load_irrs over the 13 dumps in
// memory: guard, shard queue, priority merge) at threads ∈ {1, 2, 4, 8} and
// emits BENCH_parsing.json (mirroring perf_metrics_overhead's
// BENCH_metrics.json): bytes/s and objects/s per thread count, speedup vs
// one worker, and a ≥2× speedup gate at 4 threads that only applies when
// the host actually has ≥4 hardware threads (single-core CI boxes report
// the numbers but cannot honestly gate on parallel speedup).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_meta.hpp"
#include "common.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"

namespace {

using namespace rpslyzer;

const synth::InternetGenerator& generator() {
  static synth::InternetGenerator gen(
      [] {
        synth::SynthConfig config;
        config.scale = bench::scale_from_env();
        return config;
      }());
  return gen;
}

std::size_t total_bytes() {
  std::size_t bytes = 0;
  for (const auto& [name, text] : generator().irr_dumps()) bytes += text.size();
  return bytes;
}

void BM_ParseAllIrrs(benchmark::State& state) {
  const auto& dumps = generator().irr_dumps();
  std::size_t objects = 0;
  for (auto _ : state) {
    util::Diagnostics diag;
    ir::Ir merged;
    objects = 0;
    for (const auto& name : synth::irr_names()) {
      ir::Ir parsed = irr::parse_dump(dumps.at(name), name, diag);
      objects += parsed.object_count();
      irr::merge_into(merged, std::move(parsed));
    }
    benchmark::DoNotOptimize(merged.object_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * total_bytes()));
  state.counters["objects_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * objects), benchmark::Counter::kIsRate);
  // google-benchmark reports bytes/second; compare against the paper's §3
  // claim by extrapolation: 6.9 GiB at the reported rate must stay under
  // five minutes (printed rate of ~25 MB/s suffices: 6.9 GiB / 25 MB/s ≈
  // 4.6 min single-threaded).
}
BENCHMARK(BM_ParseAllIrrs)->Unit(benchmark::kMillisecond);

/// The 13 dumps in priority order, as load_irrs' in-memory overload takes
/// them.
const std::vector<std::pair<std::string, std::string>>& priority_dumps() {
  static const auto dumps = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& name : synth::irr_names()) {
      out.emplace_back(name, generator().irr_dumps().at(name));
    }
    return out;
  }();
  return dumps;
}

/// One production load of all 13 dumps on `threads` workers; returns the
/// number of RPSL objects lexed.
std::size_t load_all(unsigned threads) {
  irr::LoadOptions options;
  options.threads = threads;
  const irr::LoadResult loaded = irr::load_irrs(priority_dumps(), options);
  std::size_t objects = 0;
  for (const irr::IrrCounts& counts : loaded.counts) objects += counts.objects;
  benchmark::DoNotOptimize(loaded.ir.object_count());
  return objects;
}

// The production load of all 13 dumps at a given thread count. The result
// is byte-identical at every count (tests/parallel_loader_test proves it);
// only wall-clock should move.
void BM_ParseAllIrrsParallel(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  std::size_t objects = 0;
  for (auto _ : state) objects = load_all(threads);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * total_bytes()));
  state.counters["objects_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * objects), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParseAllIrrsParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ObjectLexOnly(benchmark::State& state) {
  const auto& dumps = generator().irr_dumps();
  std::size_t objects = 0;
  for (auto _ : state) {
    util::Diagnostics diag;
    objects = 0;
    for (const auto& [name, text] : dumps) {
      objects += rpsl::lex_objects(text, name, diag).size();
    }
    benchmark::DoNotOptimize(objects);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * total_bytes()));
  state.counters["objects_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * objects), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ObjectLexOnly)->Unit(benchmark::kMillisecond);

void BM_ExportIrJson(benchmark::State& state) {
  util::Diagnostics diag;
  ir::Ir merged;
  for (const auto& name : synth::irr_names()) {
    irr::merge_into(merged,
                    irr::parse_dump(generator().irr_dumps().at(name), name, diag));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text = json::dump(ir::to_json(merged));
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.counters["json_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ExportIrJson)->Unit(benchmark::kMillisecond);

void BM_IndexBuild(benchmark::State& state) {
  util::Diagnostics diag;
  ir::Ir merged;
  for (const auto& name : synth::irr_names()) {
    irr::merge_into(merged,
                    irr::parse_dump(generator().irr_dumps().at(name), name, diag));
  }
  for (auto _ : state) {
    irr::Index index(merged);
    benchmark::DoNotOptimize(index.origins_of(100).size());
  }
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Hand-timed threads sweep → BENCH_parsing.json. Min-over-reps wall time of
// the production 13-dump load, like perf_metrics_overhead: the JSON is a
// machine gate, not a human report.

struct SweepPoint {
  unsigned threads = 0;
  double seconds = 0.0;
  double bytes_per_second = 0.0;
  double objects_per_second = 0.0;
  double speedup = 1.0;
};

SweepPoint time_parse(unsigned threads, int repetitions) {
  SweepPoint point;
  point.threads = threads;
  point.seconds = 1e9;
  std::size_t objects = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    objects = load_all(threads);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < point.seconds) point.seconds = elapsed.count();
  }
  point.bytes_per_second = static_cast<double>(total_bytes()) / point.seconds;
  point.objects_per_second = static_cast<double>(objects) / point.seconds;
  return point;
}

int write_parsing_json() {
  const unsigned hardware = bench::hardware_threads();
  constexpr int kRepetitions = 3;
  std::vector<SweepPoint> sweep;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    sweep.push_back(time_parse(threads, kRepetitions));
    sweep.back().speedup = sweep.front().seconds / sweep.back().seconds;
  }

  // Gate: ≥2× at 4 threads vs one worker — only meaningful when
  // the host has ≥4 hardware threads. Single-core boxes record the sweep
  // (speedups ≈ 1 or below from sharding overhead) without gating on it.
  const bool gate_applicable = hardware >= 4;
  const double speedup_at_4 = sweep[2].speedup;
  const bool pass = !gate_applicable || speedup_at_4 >= 2.0;

  json::Object doc;
  doc["bench"] = "parsing";
  doc["scale"] = bench::scale_from_env();
  doc["corpus_bytes"] = static_cast<std::int64_t>(total_bytes());
  bench::add_host_metadata(doc);
  doc["repetitions"] = kRepetitions;
  json::Array points;
  for (const SweepPoint& point : sweep) {
    json::Object row;
    row["threads"] = static_cast<std::int64_t>(point.threads);
    row["seconds"] = point.seconds;
    row["bytes_per_second"] = point.bytes_per_second;
    // Normalized per worker thread: the honest cross-host comparison (a
    // 1-core box and a 16-core box report comparable numbers here).
    row["bytes_per_second_per_core"] = point.bytes_per_second / point.threads;
    row["objects_per_second"] = point.objects_per_second;
    row["speedup_vs_serial"] = point.speedup;
    points.emplace_back(std::move(row));
  }
  doc["sweep"] = points;
  doc["single_thread_bytes_per_second"] = sweep[0].bytes_per_second;
  doc["gate_speedup_at_4_threads"] = 2.0;
  doc["gate_applicable"] = gate_applicable;
  doc["gate"] = bench::gate_marker(gate_applicable);
  doc["speedup_at_4_threads"] = speedup_at_4;
  doc["pass"] = pass;
  const std::string text = json::dump_pretty(json::Value(doc)) + "\n";

  std::FILE* out = std::fopen("BENCH_parsing.json", "wb");
  if (out != nullptr) {
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  std::fputs(text.c_str(), stdout);
  std::printf("perf_parsing threads sweep: %s\n",
              !gate_applicable ? bench::gate_marker(false).c_str()
              : pass           ? "PASS"
                               : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_parsing_json();
}
