// Interner contention gate → BENCH_contention.json.
//
// Two questions, both hand-timed (no google-benchmark: the JSON is a machine
// gate, not a human report, mirroring perf_flight):
//
//  1. How fast are concurrent SymbolTable lookups? The zero-copy refactor
//     put an interner probe on every parsed name, so reads must scale:
//     lookups take no lock and touch only acquire-loaded cells.
//  2. What does one shared atomic counter cost the workers versus per-thread
//     cache-line-padded counters? This is the measured justification for
//     keeping verify_routes_parallel's scratch per worker: the padded
//     variant's advantage at 4 threads is the gate.
//
// On hosts with <4 hardware threads the contention ratio is noise (threads
// time-slice instead of contending), so the gate records and warns instead
// of failing — same policy as perf_parsing / perf_verify.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/util/interner.hpp"
#include "rpslyzer/util/rand.hpp"

namespace rpslyzer {
namespace {

constexpr std::size_t kNames = 1 << 14;
constexpr std::size_t kLookupsPerThread = 1 << 19;

/// Synthetic RPSL-shaped spellings: as-set names with mixed case so both
/// the exact table and the fold index get exercised.
std::vector<std::string> make_names() {
  std::vector<std::string> names;
  names.reserve(kNames);
  util::SplitMix64 rng(0x5eedu);
  for (std::size_t i = 0; i < kNames; ++i) {
    std::string name = "AS-SET-" + std::to_string(rng.next() % 100000) + "-" +
                       std::to_string(i);
    if ((i & 3u) == 0) {
      for (char& c : name) c = static_cast<char>(std::tolower(c));
    }
    names.push_back(std::move(name));
  }
  return names;
}

struct alignas(64) PaddedCount {
  std::uint64_t value = 0;
  char pad[64 - sizeof(std::uint64_t)];
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> d = std::chrono::steady_clock::now() - start;
  return d.count();
}

/// Concurrent lookup sweep. `shared_counter` selects the bookkeeping mode:
/// every hit bumps either one process-wide atomic (the anti-pattern) or a
/// per-thread padded slot (what the verify pool does with result chunks).
double time_lookups(const util::SymbolTable& table,
                    const std::vector<std::string>& names, unsigned threads,
                    bool shared_counter, std::uint64_t* hits_out) {
  std::atomic<std::uint64_t> shared{0};
  std::vector<PaddedCount> padded(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      util::SplitMix64 rng(0x1234u + t);
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        const std::string& name = names[rng.next() % names.size()];
        if (table.find(name).has_value()) {
          if (shared_counter) {
            shared.fetch_add(1, std::memory_order_relaxed);
          } else {
            ++padded[t].value;
          }
        }
        ++local;
      }
      (void)local;
    });
  }
  for (auto& thread : pool) thread.join();
  const double seconds = seconds_since(start);
  std::uint64_t hits = shared.load(std::memory_order_relaxed);
  for (const PaddedCount& p : padded) hits += p.value;
  if (hits_out != nullptr) *hits_out = hits;
  return seconds;
}

int run() {
  const std::vector<std::string> names = make_names();
  util::SymbolTable table(util::SymbolTable::Mode::kExact);
  for (const std::string& name : names) table.intern(name);

  const unsigned hardware = bench::hardware_threads();
  json::Object doc;
  doc["bench"] = "contention";
  bench::add_host_metadata(doc);
  doc["names"] = static_cast<std::int64_t>(names.size());
  doc["lookups_per_thread"] = static_cast<std::int64_t>(kLookupsPerThread);

  json::Array sweep;
  double padded_at_4 = 0.0;
  double shared_at_4 = 0.0;
  for (unsigned threads : {1u, 2u, 4u}) {
    std::uint64_t hits = 0;
    const double shared_seconds = time_lookups(table, names, threads, true, &hits);
    const double padded_seconds = time_lookups(table, names, threads, false, &hits);
    const double total = static_cast<double>(kLookupsPerThread) * threads;
    json::Object row;
    row["threads"] = static_cast<std::int64_t>(threads);
    row["hits"] = static_cast<std::int64_t>(hits);
    row["shared_counter_seconds"] = shared_seconds;
    row["padded_counter_seconds"] = padded_seconds;
    row["lookups_per_second"] = total / padded_seconds;
    row["lookups_per_second_per_core"] = total / padded_seconds / threads;
    row["padded_vs_shared"] = shared_seconds / padded_seconds;
    sweep.emplace_back(std::move(row));
    if (threads == 4) {
      padded_at_4 = padded_seconds;
      shared_at_4 = shared_seconds;
    }
  }
  doc["sweep"] = sweep;

  // Gate: at 4 threads, per-thread padded bookkeeping must not lose to the
  // shared atomic (ratio ≥ 1.0 with 5% noise margin). Only meaningful when
  // 4 workers actually run in parallel.
  const double ratio = shared_at_4 / padded_at_4;
  const bool enforced = hardware >= 4;
  const bool pass = !enforced || ratio >= 0.95;
  doc["padded_vs_shared_at_4_threads"] = ratio;
  doc["gate_padded_vs_shared"] = 0.95;
  doc["gate"] = bench::gate_marker(enforced);
  doc["pass"] = pass;

  const std::string text = json::dump_pretty(json::Value(doc)) + "\n";
  std::FILE* out = std::fopen("BENCH_contention.json", "wb");
  if (out != nullptr) {
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  std::fputs(text.c_str(), stdout);
  std::printf("perf_contention: %s\n", !enforced ? bench::gate_marker(false).c_str()
                                       : pass    ? "PASS"
                                                 : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace rpslyzer

int main() { return rpslyzer::run(); }
