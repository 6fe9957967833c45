// Regenerates Figure 6: breakdown of special cases per AS (Appendix D) and
// the §5.2 special-case claims.

#include <cstdio>

#include "common.hpp"
#include "rpslyzer/stats/census.hpp"

int main() {
  using namespace rpslyzer;
  bench::World world;
  bench::print_header("Figure 6: breakdown of special cases per AS", world);

  report::Aggregator agg = world.verify_all();
  report::Fig2Summary fig2 = report::Fig2Summary::compute(agg);

  const report::SpecialPerAs special = agg.special_cases();
  std::array<std::size_t, report::kSpecialCategoryCount> ases_per_category{};
  for (const auto& [asn, categories] : special) {
    for (std::size_t i = 0; i < categories.size(); ++i) {
      if (categories[i] > 0) ++ases_per_category[i];
    }
  }
  auto category = [&](report::SpecialCategory c) {
    return ases_per_category[static_cast<std::size_t>(c)];
  };

  bench::print_row("ASes with any special case", "30.9% (25596)",
                   bench::pct(special.size(), fig2.ases));
  bench::print_row("... export self", "1.2% (994)",
                   bench::pct(category(report::SpecialCategory::kExportSelf), fig2.ases));
  bench::print_row("... import customer", "0.4% (325)",
                   bench::pct(category(report::SpecialCategory::kImportCustomer), fig2.ases));
  bench::print_row("... missing route objects", "6.2% (5181)",
                   bench::pct(category(report::SpecialCategory::kMissingRoutes), fig2.ases));
  bench::print_row("... only provider policies", "0.06% (46)",
                   bench::pct(category(report::SpecialCategory::kOnlyProviderPolicies),
                              fig2.ases));
  bench::print_row("... Tier-1 peering", "-",
                   bench::pct(category(report::SpecialCategory::kTier1Pair), fig2.ases));
  bench::print_row("... uphill propagation", "28.1% (23298)",
                   bench::pct(category(report::SpecialCategory::kUphill), fig2.ases));

  // §5.2: "more incorrectly allow customer route exports ('export self')
  // than imports ('import customer')".
  bench::print_row("export-self ASes > import-customer ASes (shape)", "yes",
                   category(report::SpecialCategory::kExportSelf) >=
                           category(report::SpecialCategory::kImportCustomer)
                       ? "yes"
                       : "NO");
  // "most of the special cases are due to uphill propagation ... or
  // missing route objects".
  const std::size_t dominant = category(report::SpecialCategory::kUphill) +
                               category(report::SpecialCategory::kMissingRoutes);
  const std::size_t misuse = category(report::SpecialCategory::kExportSelf) +
                             category(report::SpecialCategory::kImportCustomer);
  bench::print_row("uphill+missing-routes dominate misuse (shape)", "yes",
                   dominant >= misuse ? "yes" : "NO");

  // Appendix E rule-shape extraction, the survey candidate population.
  stats::MisusePatterns patterns = stats::MisusePatterns::compute(world.lyzer.ir());
  bench::print_row("rule-shape candidates (App. E extraction)", "1102",
                   std::to_string(patterns.import_customer.size() +
                                  patterns.export_self.size()));
  return 0;
}
