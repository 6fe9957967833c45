// Verify BGP routes against RPSL policies (the paper's §5 experiment) and
// print the Figure 2/3/4 aggregations plus the Figure 5/6 breakdowns.
//
// Usage:
//   verify_routes              — synthetic Internet end to end
//   verify_routes <dir>        — <dir>/{apnic..altdb}.db + relationships.txt
//                                + collector-*.dump files

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "rpslyzer/report/aggregate.hpp"
#include "rpslyzer/report/render.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/verify/parallel.hpp"

namespace {

using namespace rpslyzer;

void print_percent(const char* label, std::size_t part, std::size_t whole) {
  std::printf("  %-52s %8zu (%5.1f%%)\n", label, part,
              whole == 0 ? 0.0 : 100.0 * double(part) / double(whole));
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<synth::InternetGenerator> generator;
  std::optional<Rpslyzer> lyzer;
  std::vector<std::string> bgp_dumps;

  if (argc > 1) {
    const std::filesystem::path dir = argv[1];
    lyzer = Rpslyzer::from_files(dir, dir / "relationships.txt");
    for (std::size_t i = 0;; ++i) {
      std::ifstream in(dir / ("collector-" + std::to_string(i) + ".dump"), std::ios::binary);
      if (!in) break;
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bgp_dumps.push_back(std::move(buffer).str());
    }
  } else {
    std::cout << "Generating a synthetic Internet (pass a directory for real data)...\n";
    generator.emplace();
    std::vector<std::pair<std::string, std::string>> ordered;
    for (const auto& name : synth::irr_names()) {
      ordered.emplace_back(name, generator->irr_dumps().at(name));
    }
    lyzer = Rpslyzer::from_texts(ordered, generator->caida_serial1());
    bgp_dumps = generator->bgp_dumps();
  }

  // Both the dump parse and the verification run on every hardware thread.
  const unsigned threads = 0;
  report::Aggregator agg;
  bgp::DumpStats dump_stats;
  const auto start = std::chrono::steady_clock::now();
  std::vector<bgp::Route> routes;
  for (const auto& dump : bgp_dumps) {
    for (auto& route : bgp::parse_table_dump(dump, &dump_stats, threads)) {
      routes.push_back(std::move(route));
    }
  }
  const auto checks = verify::verify_routes_parallel(lyzer->snapshot(), routes, {}, threads);
  for (std::size_t i = 0; i < routes.size(); ++i) agg.add(routes[i], checks[i]);
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);

  std::printf("\nVerified %zu routes (%zu checks) from %zu collectors in %.2fs\n",
              agg.total_routes(), agg.total_checks(), bgp_dumps.size(), elapsed.count());
  std::printf("Ignored: %zu single-AS, %zu with BGP AS-sets, %zu malformed\n",
              dump_stats.single_as, dump_stats.with_as_set, dump_stats.malformed);

  std::cout << "\n=== Per-AS statuses (Figure 2) ===\n";
  std::vector<report::StatusCounts> per_as;
  report::StatusCounts totals;
  for (const auto& [asn, counts] : agg.as_combined()) {
    per_as.push_back(counts);
    totals.merge(counts);
  }
  std::cout << report::render_stacked(per_as);
  auto fig2 = report::Fig2Summary::compute(agg);
  print_percent("ASes with one status for all their checks", fig2.all_same_status, fig2.ases);
  print_percent("... all verified", fig2.all_verified, fig2.ases);
  print_percent("... all unrecorded", fig2.all_unrecorded, fig2.ases);
  print_percent("... all relaxed", fig2.all_relaxed, fig2.ases);
  print_percent("... all safelisted", fig2.all_safelisted, fig2.ases);
  print_percent("ASes with any skipped check", fig2.any_skip, fig2.ases);
  std::cout << "  overall: " << report::render_composition(totals) << "\n";

  std::cout << "\n=== Per-AS-pair statuses (Figure 3) ===\n";
  auto fig3 = report::Fig3Summary::compute(agg);
  print_percent("import pairs with a single status", fig3.pairs_import_single_status,
                fig3.pairs_import);
  print_percent("export pairs with a single status", fig3.pairs_export_single_status,
                fig3.pairs_export);
  print_percent("pairs with unverified routes", fig3.pairs_with_unverified,
                fig3.pairs_import);
  print_percent("unverified checks from undeclared peerings",
                fig3.unverified_checks_peering_undeclared, fig3.unverified_checks_total);

  std::cout << "\n=== Per-route statuses (Figure 4) ===\n";
  auto fig4 = report::Fig4Summary::compute(agg);
  print_percent("routes with one status across all hops", fig4.single_status, fig4.routes);
  print_percent("... all verified", fig4.single_verified, fig4.routes);
  print_percent("... all unrecorded", fig4.single_unrecorded, fig4.routes);
  print_percent("... all unverified", fig4.single_unverified, fig4.routes);
  std::cout << "  first hops: " << report::render_composition(agg.first_hops()) << "\n";

  std::cout << "\n=== Unrecorded breakdown (Figure 5) ===\n";
  std::array<std::size_t, report::kUnrecordedCategoryCount> unrecorded_ases{};
  for (const auto& [asn, categories] : agg.unrecorded()) {
    for (std::size_t i = 0; i < categories.size(); ++i) {
      if (categories[i] > 0) ++unrecorded_ases[i];
    }
  }
  for (std::size_t i = 0; i < unrecorded_ases.size(); ++i) {
    print_percent(report::to_string(static_cast<report::UnrecordedCategory>(i)),
                  unrecorded_ases[i], fig2.ases);
  }

  std::cout << "\n=== Special-case breakdown (Figure 6) ===\n";
  const report::SpecialPerAs special = agg.special_cases();
  std::array<std::size_t, report::kSpecialCategoryCount> special_ases{};
  for (const auto& [asn, categories] : special) {
    for (std::size_t i = 0; i < categories.size(); ++i) {
      if (categories[i] > 0) ++special_ases[i];
    }
  }
  for (std::size_t i = 0; i < special_ases.size(); ++i) {
    print_percent(report::to_string(static_cast<report::SpecialCategory>(i)), special_ases[i],
                  fig2.ases);
  }
  print_percent("ASes with at least one special case", special.size(),
                fig2.ases);
  return 0;
}
