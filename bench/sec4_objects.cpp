// Regenerates the §4 prose censuses that have no figure number: peering and
// filter shapes, route-object multiplicity and maintenance burden, as-set
// opacity, and the RPSL error counts.

#include "common.hpp"
#include "rpslyzer/stats/census.hpp"

int main() {
  using namespace rpslyzer;
  bench::World world;
  bench::print_header("Section 4 prose: rule shapes, route objects, as-sets, errors", world);
  const irr::Index& index = world.lyzer.index();

  stats::ShapeCensus shapes = stats::ShapeCensus::compute(world.lyzer.ir());
  bench::print_row("peerings that are a single ASN or ANY", "98.4%",
                   bench::pct(shapes.peerings_single_asn_or_any, shapes.peerings_total));
  bench::print_row("filters that are an as-set", "43.4%",
                   bench::pct(shapes.filters_as_set, shapes.filters_total));
  bench::print_row("filters that are an ASN", "24.1%",
                   bench::pct(shapes.filters_asn, shapes.filters_total));
  bench::print_row("ASes w/ rules, all BGPq4-compatible", "94.5%",
                   bench::pct(shapes.ases_all_rules_bgpq4_compatible,
                              shapes.ases_with_rules));

  stats::RouteObjectStats routes = stats::RouteObjectStats::compute(world.lyzer.ir());
  bench::print_row("unique prefixes w/ multiple route objects", "24.7%",
                   bench::pct(routes.prefixes_with_multiple_objects,
                              routes.unique_prefixes));
  bench::print_row("... of those, different origins", "58.1%",
                   bench::pct(routes.prefixes_with_multiple_origins,
                              routes.prefixes_with_multiple_objects));
  bench::print_row("prefixes w/ multiple maintainers", "67.3% (of multi)",
                   bench::pct(routes.prefixes_with_multiple_maintainers,
                              routes.unique_prefixes));
  {
    // "about 3x more prefixes than in current global BGP tables".
    const std::size_t announced = world.generator.topology().prefix_count();
    char measured[32];
    std::snprintf(measured, sizeof measured, "%.1fx",
                  announced == 0 ? 0.0 : double(routes.unique_prefixes) / double(announced));
    bench::print_row("registered prefixes vs announced prefixes", "~3x", measured);
  }

  stats::AsSetStats sets = stats::AsSetStats::compute(world.lyzer.ir(), index);
  bench::print_row("empty as-sets", "14.5%", bench::pct(sets.empty, sets.total));
  bench::print_row("single-member as-sets", "32.7%",
                   bench::pct(sets.single_member, sets.total));
  bench::print_row("as-sets containing keyword ANY", "3",
                   std::to_string(sets.with_any_keyword));
  bench::print_row("as-sets with >10000 members", "1.4%",
                   bench::pct(sets.huge, sets.total));
  bench::print_row("recursive as-sets", "25.5%", bench::pct(sets.recursive, sets.total));
  bench::print_row("... of those, in loops", "22.4%",
                   bench::pct(sets.in_loops, sets.recursive));
  bench::print_row("... of those, depth >= 5", "23.0%",
                   bench::pct(sets.depth_5_plus, sets.recursive));

  stats::ErrorCensus errors =
      stats::ErrorCensus::compute(world.lyzer.diagnostics(), world.lyzer.ir());
  bench::print_row("syntax errors", "663", std::to_string(errors.syntax_errors));
  bench::print_row("invalid as-set names", "12", std::to_string(errors.invalid_as_set_names));
  bench::print_row("invalid route-set names", "17",
                   std::to_string(errors.invalid_route_set_names));

  stats::MisusePatterns patterns = stats::MisusePatterns::compute(world.lyzer.ir());
  bench::print_row("ASes with export-self rule shape (App. E)", "1102 candidates (total)",
                   std::to_string(patterns.export_self.size()));
  bench::print_row("ASes with import-customer rule shape (App. E)", "-",
                   std::to_string(patterns.import_customer.size()));
  return 0;
}
