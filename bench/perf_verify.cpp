// §5 verification throughput: the paper checks 779M route announcements
// against the compiled policies of 13 IRRs. This bench measures routes/s
// through both verification backends on the synthetic corpus — the
// interpreted evaluator (walks ir::Rule trees and flattens sets through
// the index's lazy memo) and the CompiledPolicySnapshot (pre-flattened
// sets, pre-composed range-op intervals, pre-lowered AS-path NFAs, flat
// rule arrays with a plain-ASN peer fast reject). A custom main()
// hand-times both single-threaded, sweeps the snapshot path across
// threads ∈ {1, 2, 4, 8}, and emits BENCH_verify.json (mirroring
// perf_parsing's BENCH_parsing.json) with a ≥2× single-thread
// snapshot-vs-interpreted speedup gate: compiling policies once must pay
// for itself on every route thereafter.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_meta.hpp"
#include "common.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/verify/parallel.hpp"

namespace {

using namespace rpslyzer;

const bench::World& world() {
  static bench::World w;
  return w;
}

const std::vector<bgp::Route>& routes() {
  static std::vector<bgp::Route> all = world().all_routes();
  return all;
}

void BM_VerifyInterpreted(benchmark::State& state) {
  const auto& w = world();
  const auto& rs = routes();
  w.lyzer.index().prewarm();  // flattening is a pure read during timing
  std::size_t checks = 0;
  for (auto _ : state) {
    verify::Verifier verifier(w.lyzer.index(), w.lyzer.relations());
    checks = 0;
    for (const auto& route : rs) checks += verifier.verify_route(route).size();
    benchmark::DoNotOptimize(checks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rs.size()));
  state.counters["hop_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_VerifyInterpreted)->Unit(benchmark::kMillisecond);

void BM_VerifySnapshot(benchmark::State& state) {
  const auto& w = world();
  const auto& rs = routes();
  auto snapshot = w.lyzer.snapshot();  // built (and memoized) outside timing
  std::size_t checks = 0;
  for (auto _ : state) {
    verify::Verifier verifier(snapshot);
    checks = 0;
    for (const auto& route : rs) checks += verifier.verify_route(route).size();
    benchmark::DoNotOptimize(checks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rs.size()));
  state.counters["hop_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_VerifySnapshot)->Unit(benchmark::kMillisecond);

void BM_VerifySnapshotParallel(benchmark::State& state) {
  const auto& w = world();
  const auto& rs = routes();
  auto snapshot = w.lyzer.snapshot();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto results = verify::verify_routes_parallel(snapshot, rs, {}, threads);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rs.size()));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_VerifySnapshotParallel)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Hand-timed gate → BENCH_verify.json. Min-over-reps wall time, like
// perf_parsing: the JSON is a machine gate, not a human report.

constexpr int kRepetitions = 3;

double time_interpreted_once() {
  const auto& w = world();
  const auto& rs = routes();
  double best = 1e9;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    verify::Verifier verifier(w.lyzer.index(), w.lyzer.relations());
    std::size_t checks = 0;
    for (const auto& route : rs) checks += verifier.verify_route(route).size();
    benchmark::DoNotOptimize(checks);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

double time_snapshot(unsigned threads) {
  const auto& w = world();
  const auto& rs = routes();
  auto snapshot = w.lyzer.snapshot();
  double best = 1e9;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    if (threads == 1) {
      verify::Verifier verifier(snapshot);
      std::size_t checks = 0;
      for (const auto& route : rs) checks += verifier.verify_route(route).size();
      benchmark::DoNotOptimize(checks);
    } else {
      auto results = verify::verify_routes_parallel(snapshot, rs, {}, threads);
      benchmark::DoNotOptimize(results.size());
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

int write_verify_json() {
  const auto& rs = routes();
  const double route_count = static_cast<double>(rs.size());

  world().lyzer.index().prewarm();
  world().lyzer.snapshot();  // pay the one-time build before any stopwatch
  const double interpreted_seconds = time_interpreted_once();
  const double snapshot_seconds = time_snapshot(1);
  const double speedup = interpreted_seconds / snapshot_seconds;
  // The snapshot exists to be compiled once and consulted per route: if it
  // cannot beat tree-walking twice over, the lowering is not earning its
  // complexity. On starved CI hosts (<4 hardware threads) the interpreted
  // baseline and the snapshot run contend with each other and the ratio is
  // noise — record it, warn, but do not fail the build over it.
  const bool enforced = bench::hardware_threads() >= 4;
  const bool pass = speedup >= 2.0 || !enforced;

  json::Object doc;
  doc["bench"] = "verify";
  doc["scale"] = bench::scale_from_env();
  doc["routes"] = static_cast<std::int64_t>(rs.size());
  bench::add_host_metadata(doc);
  doc["repetitions"] = kRepetitions;
  doc["interpreted_seconds"] = interpreted_seconds;
  doc["interpreted_routes_per_second"] = route_count / interpreted_seconds;
  doc["snapshot_seconds"] = snapshot_seconds;
  doc["snapshot_routes_per_second"] = route_count / snapshot_seconds;
  doc["snapshot_speedup_vs_interpreted"] = speedup;

  json::Array sweep;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const double seconds = threads == 1 ? snapshot_seconds : time_snapshot(threads);
    json::Object row;
    row["threads"] = static_cast<std::int64_t>(threads);
    row["seconds"] = seconds;
    row["routes_per_second"] = route_count / seconds;
    row["routes_per_second_per_core"] = route_count / seconds / threads;
    row["speedup_vs_single"] = snapshot_seconds / seconds;
    sweep.emplace_back(std::move(row));
  }
  doc["sweep"] = sweep;
  doc["gate_single_thread_speedup"] = 2.0;
  doc["gate"] = bench::gate_marker(enforced);
  doc["pass"] = pass;
  const std::string text = json::dump_pretty(json::Value(doc)) + "\n";

  std::FILE* out = std::fopen("BENCH_verify.json", "wb");
  if (out != nullptr) {
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  std::fputs(text.c_str(), stdout);
  if (!enforced && speedup < 2.0) {
    std::printf("perf_verify snapshot-vs-interpreted: WARN %.2fx < 2x "
                "(gate skipped: %u hardware threads)\n",
                speedup, bench::hardware_threads());
  } else {
    std::printf("perf_verify snapshot-vs-interpreted: %s\n", pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_verify_json();
}
