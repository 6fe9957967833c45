// Regenerates Figure 5: breakdown of route verification failures due to
// unrecorded RPSL objects, per AS (Appendix D).

#include <cstdio>

#include "common.hpp"

int main() {
  using namespace rpslyzer;
  bench::World world;
  bench::print_header("Figure 5: breakdown of unrecorded verification failures", world);

  report::Aggregator agg = world.verify_all();
  report::Fig2Summary fig2 = report::Fig2Summary::compute(agg);

  const report::UnrecordedPerAs unrecorded = agg.unrecorded();
  std::array<std::size_t, report::kUnrecordedCategoryCount> ases_per_category{};
  for (const auto& [asn, categories] : unrecorded) {
    for (std::size_t i = 0; i < categories.size(); ++i) {
      if (categories[i] > 0) ++ases_per_category[i];
    }
  }

  // Paper: 22,562 ASes missing aut-num; 20,048 with zero rules for the
  // direction; 2706 zero-route ASes; 414 with missing set objects —
  // out of 78,701 ASes.
  bench::print_row("ASes w/ unrecorded: missing aut-num", "28.7% (22562)",
                   bench::pct(ases_per_category[size_t(
                                  report::UnrecordedCategory::kMissingAutNum)],
                              fig2.ases));
  bench::print_row("ASes w/ unrecorded: zero rules for direction", "25.5% (20048)",
                   bench::pct(ases_per_category[size_t(report::UnrecordedCategory::kNoRules)],
                              fig2.ases));
  bench::print_row("ASes w/ unrecorded: zero-route AS in filter", "3.4% (2706)",
                   bench::pct(ases_per_category[size_t(
                                  report::UnrecordedCategory::kZeroRouteAs)],
                              fig2.ases));
  bench::print_row("ASes w/ unrecorded: missing set object", "0.5% (414)",
                   bench::pct(ases_per_category[size_t(
                                  report::UnrecordedCategory::kMissingSet)],
                              fig2.ases));

  // Ordering check: the paper's dominance order is aut-num > no-rules >
  // zero-route > missing sets.
  const bool dominance =
      ases_per_category[0] + ases_per_category[1] >=
      ases_per_category[2] + ases_per_category[3];
  bench::print_row("adoption gaps dominate reference gaps (shape)", "yes",
                   dominance ? "yes" : "NO");

  // ASes missing an aut-num have the unrecorded status for every check
  // ("the same color across the y-axis").
  std::size_t missing_all_unrecorded = 0;
  std::size_t missing_total = 0;
  const report::PerAs combined = agg.as_combined();
  for (const auto& [asn, categories] : unrecorded) {
    if (categories[size_t(report::UnrecordedCategory::kMissingAutNum)] == 0) continue;
    ++missing_total;
    report::Status which;
    if (combined.at(asn).single_status(&which) && which == report::Status::kUnrecorded) {
      ++missing_all_unrecorded;
    }
  }
  bench::print_row("missing-aut-num ASes with 100% unrecorded checks", "100%",
                   bench::pct(missing_all_unrecorded, missing_total));
  return 0;
}
