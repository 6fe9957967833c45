// Regenerates Figure 2: route verification status for each AS (stacked
// composition, ASes ordered by correctness), plus the §5.2 per-AS claims.

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
  bench::print_header("Figure 2: route verification status for each AS", world);

  report::Aggregator agg = world.verify_all();
  report::Fig2Summary summary = report::Fig2Summary::compute(agg);

  bench::print_row("ASes with one status for all checks", "74.4%",
                   bench::pct(summary.all_same_status, summary.ases));
  bench::print_row("... 100% verified", "14.2%",
                   bench::pct(summary.all_verified, summary.ases));
  bench::print_row("... 100% unrecorded", "51.6%",
                   bench::pct(summary.all_unrecorded, summary.ases));
  bench::print_row("... 100% relaxed", "0.34%",
                   bench::pct(summary.all_relaxed, summary.ases));
  bench::print_row("... 100% safelisted", "6.9%",
                   bench::pct(summary.all_safelisted, summary.ases));
  bench::print_row("ASes with any skipped check", "0.03%",
                   bench::pct(summary.any_skip, summary.ases));
  bench::print_row("ASes with any unrecorded check", "54.9%",
                   bench::pct(summary.any_unrecorded, summary.ases));

  // "Excluding ASes with skipped or unrecorded cases, we find more ASes
  // with verified (76.3%) or special-cased (62.5%) routes than ASes with
  // unverified routes (23.1%)."
  std::size_t covered = 0;
  std::size_t with_verified = 0;
  std::size_t with_special = 0;
  std::size_t with_unverified = 0;
  const report::PerAs combined = agg.as_combined();
  for (const auto& [asn, counts] : combined) {
    if (counts.of(verify::Status::kSkip) > 0 ||
        counts.of(verify::Status::kUnrecorded) > 0) {
      continue;
    }
    ++covered;
    if (counts.of(verify::Status::kVerified) > 0) ++with_verified;
    if (counts.of(verify::Status::kRelaxed) + counts.of(verify::Status::kSafelisted) > 0) {
      ++with_special;
    }
    if (counts.of(verify::Status::kUnverified) > 0) ++with_unverified;
  }
  bench::print_row("covered ASes with verified routes", "76.3%",
                   bench::pct(with_verified, covered));
  bench::print_row("covered ASes with special-cased routes", "62.5%",
                   bench::pct(with_special, covered));
  bench::print_row("covered ASes with unverified routes", "23.1%",
                   bench::pct(with_unverified, covered));

  std::printf("\nstacked per-AS composition (x: ASes ordered by correctness):\n");
  std::vector<report::StatusCounts> per_as;
  for (const auto& [asn, counts] : combined) per_as.push_back(counts);
  std::printf("%s", report::render_stacked(per_as).c_str());
  maybe_write_csv("fig2_per_as.csv", per_as);
  return 0;
}
