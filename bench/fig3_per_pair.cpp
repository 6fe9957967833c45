// Regenerates Figure 3: verification status for each AS pair (both
// propagation directions), plus the §5.2 per-pair claims.

#include <cstdio>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common.hpp"
#include "rpslyzer/report/render.hpp"

namespace {
/// Write a figure's CSV series when RPSLYZER_CSV_DIR is set.
void maybe_write_csv(const char* name, std::vector<rpslyzer::report::StatusCounts> entities) {
  const char* dir = std::getenv("RPSLYZER_CSV_DIR");
  if (dir == nullptr) return;
  std::filesystem::create_directories(dir);
  std::ofstream out(std::filesystem::path(dir) / name, std::ios::binary);
  out << rpslyzer::report::to_csv(std::move(entities));
  std::printf("wrote %s/%s\n", dir, name);
}
}  // namespace


int main() {
  using namespace rpslyzer;
  bench::World world;
  bench::print_header("Figure 3: route verification status for each AS pair", world);

  report::Aggregator agg = world.verify_all();
  report::Fig3Summary summary = report::Fig3Summary::compute(agg);

  bench::print_row("import pairs with a single status", "91.7%",
                   bench::pct(summary.pairs_import_single_status, summary.pairs_import));
  bench::print_row("export pairs with a single status", "92%",
                   bench::pct(summary.pairs_export_single_status, summary.pairs_export));
  bench::print_row("pairs with unverified routes", "63.0%",
                   bench::pct(summary.pairs_with_unverified, summary.pairs_import));
  bench::print_row("unverified checks due to undeclared peerings", "98.98%",
                   bench::pct(summary.unverified_checks_peering_undeclared,
                              summary.unverified_checks_total));

  // "Most AS pairs show either consistent status ... or two statuses in an
  // even split."
  std::size_t pairs = 0;
  std::size_t single_or_two = 0;
  const report::PerPair imports = agg.pair_imports();
  const report::PerPair exports = agg.pair_exports();
  for (const auto* direction : {&imports, &exports}) {
    for (const auto& [pair, counts] : *direction) {
      ++pairs;
      int statuses = 0;
      for (std::size_t s = 0; s < report::kStatusCount; ++s) {
        if (counts.counts[s] > 0) ++statuses;
      }
      if (statuses <= 2) ++single_or_two;
    }
  }
  bench::print_row("pairs with at most two statuses", "most",
                   bench::pct(single_or_two, pairs));

  std::printf("\nstacked per-pair composition, imports (x: pairs by correctness):\n");
  // Pair order feeds the tie order of the correctness sort: key order.
  std::vector<report::StatusCounts> import_pairs;
  for (const auto& [pair, counts] : imports) import_pairs.push_back(counts);
  std::printf("%s", report::render_stacked(import_pairs, 72, 12).c_str());

  std::printf("\nstacked per-pair composition, exports:\n");
  std::vector<report::StatusCounts> export_pairs;
  for (const auto& [pair, counts] : exports) export_pairs.push_back(counts);
  std::printf("%s", report::render_stacked(export_pairs, 72, 12).c_str());
  maybe_write_csv("fig3_pairs_import.csv", import_pairs);
  maybe_write_csv("fig3_pairs_export.csv", export_pairs);
  return 0;
}
