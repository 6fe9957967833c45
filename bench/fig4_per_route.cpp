// Regenerates Figure 4: verification status for all hops in BGP routes,
// plus the first-hop analysis from §5.2.

#include <algorithm>
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
  bench::print_header("Figure 4: verification status for all hops in BGP routes", world);

  report::Aggregator agg = world.verify_all();
  report::Fig4Summary summary = report::Fig4Summary::compute(agg);

  bench::print_row("routes with one status across all hops", "6.6%",
                   bench::pct(summary.single_status, summary.routes));
  bench::print_row("... all verified", "1.6%",
                   bench::pct(summary.single_verified, summary.routes));
  bench::print_row("... all unrecorded", "3.0%",
                   bench::pct(summary.single_unrecorded, summary.routes));
  bench::print_row("... all unverified", "1.6%",
                   bench::pct(summary.single_unverified, summary.routes));

  // Mix statistics: "Most AS-paths have a mix of two or three statuses."
  std::size_t with_two_or_three = 0;
  for (const auto& counts : agg.routes()) {
    int statuses = 0;
    for (std::size_t s = 0; s < report::kStatusCount; ++s) {
      if (counts.counts[s] > 0) ++statuses;
    }
    if (statuses == 2 || statuses == 3) ++with_two_or_three;
  }
  bench::print_row("routes mixing two or three statuses", "most",
                   bench::pct(with_two_or_three, summary.routes));

  // The per-route counts as StatusCounts, which the renderers take.
  std::vector<report::StatusCounts> per_route(agg.routes().size());
  for (std::size_t i = 0; i < per_route.size(); ++i) {
    std::copy(agg.routes()[i].counts.begin(), agg.routes()[i].counts.end(),
              per_route[i].counts.begin());
  }

  // First-hop status (the route-leak/hijack filtering discussion): fewer
  // unverified, more safelisted than all-hops.
  report::StatusCounts all_hops;
  for (const auto& counts : per_route) all_hops.merge(counts);
  std::printf("\nall hops:   %s\n", report::render_composition(all_hops).c_str());
  std::printf("first hops: %s\n", report::render_composition(agg.first_hops()).c_str());
  const double unverified_all =
      double(all_hops.of(verify::Status::kUnverified)) / double(all_hops.total());
  const double unverified_first = double(agg.first_hops().of(verify::Status::kUnverified)) /
                                  double(agg.first_hops().total());
  bench::print_row("first hops less unverified than all hops", "yes (slightly)",
                   unverified_first <= unverified_all ? "yes" : "NO");

  std::printf("\nstacked per-route composition (x: routes by correctness):\n");
  std::printf("%s", report::render_stacked(per_route, 72, 12).c_str());
  maybe_write_csv("fig4_per_route.csv", std::move(per_route));
  return 0;
}
