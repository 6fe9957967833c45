// The §5.2 aggregation of one synthetic corpus, pinned. The scale-0.25,
// seed-1 corpus (pipebench's small corpus) is verified in full and fed to
// report::Aggregator; the Figure 2-4 summaries, the counters and a digest
// of every table in key order must equal tests/golden/aggregate_s0.25_seed1.txt.
// That file was written by the node-map aggregator the flat tables replaced.
// On a mismatch the test writes what it got to aggregate_golden.actual in
// its working directory.

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rpslyzer/report/aggregate.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/generator.hpp"

namespace rpslyzer::report {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void mix(const AsnPair& pair) {
    mix(pair.first);
    mix(pair.second);
  }
  void mix(const StatusCounts& counts) {
    for (std::size_t c : counts.counts) mix(c);
  }
  // Each 32-bit count widened to 64 bits, as when routes held StatusCounts.
  void mix(const RouteCounts& counts) {
    for (std::uint32_t c : counts.counts) mix(std::uint64_t{c});
  }
  template <std::size_t N>
  void mix(const std::array<std::size_t, N>& counts) {
    for (std::size_t c : counts) mix(c);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// "<name> <entries> <digest>" over the table's entries in key order.
template <typename Table>
std::string table_line(const char* name, const Table& table) {
  const std::map<typename Table::key_type, typename Table::mapped_type> sorted(table.begin(),
                                                                               table.end());
  Digest digest;
  for (const auto& [key, value] : sorted) {
    digest.mix(key);
    digest.mix(value);
  }
  return std::string(name) + " " + std::to_string(sorted.size()) + " " + digest.hex() + "\n";
}

std::string render(const Aggregator& agg) {
  std::ostringstream out;
  const Fig2Summary f2 = Fig2Summary::compute(agg);
  out << "fig2 " << f2.ases << " " << f2.all_same_status << " " << f2.all_verified << " "
      << f2.all_unrecorded << " " << f2.all_relaxed << " " << f2.all_safelisted << " "
      << f2.any_skip << " " << f2.any_unrecorded << "\n";
  const Fig3Summary f3 = Fig3Summary::compute(agg);
  out << "fig3 " << f3.pairs_import << " " << f3.pairs_import_single_status << " "
      << f3.pairs_export << " " << f3.pairs_export_single_status << " "
      << f3.pairs_with_unverified << " " << f3.unverified_checks_peering_undeclared << " "
      << f3.unverified_checks_total << "\n";
  const Fig4Summary f4 = Fig4Summary::compute(agg);
  out << "fig4 " << f4.routes << " " << f4.single_status << " " << f4.single_verified << " "
      << f4.single_unrecorded << " " << f4.single_unverified << "\n";
  out << "checks " << agg.total_checks() << " routes " << agg.total_routes() << " unverified "
      << agg.unverified_checks() << " undeclared " << agg.unverified_peering_undeclared()
      << "\n";
  out << "first_hops";
  for (std::size_t c : agg.first_hops().counts) out << " " << c;
  out << "\n";
  Digest routes;
  for (const RouteCounts& counts : agg.routes()) routes.mix(counts);
  out << "route_series " << agg.routes().size() << " " << routes.hex() << "\n";
  // Each table is bound to a name first: an accessor may return by value.
  const auto& as_imports = agg.as_imports();
  const auto& as_exports = agg.as_exports();
  const auto& as_combined = agg.as_combined();
  const auto& pair_imports = agg.pair_imports();
  const auto& pair_exports = agg.pair_exports();
  const auto& unrecorded = agg.unrecorded();
  const auto& special = agg.special_cases();
  out << table_line("as_imports", as_imports) << table_line("as_exports", as_exports)
      << table_line("as_combined", as_combined) << table_line("pair_imports", pair_imports)
      << table_line("pair_exports", pair_exports) << table_line("unrecorded", unrecorded)
      << table_line("special_cases", special);
  return out.str();
}

TEST(AggregateGolden, SmallSyntheticCorpusMatchesPinnedTables) {
  synth::SynthConfig config;
  config.seed = 1;
  config.scale = 0.25;
  const synth::InternetGenerator generator(config);
  std::vector<std::pair<std::string, std::string>> dumps;
  for (const auto& name : synth::irr_names()) {
    dumps.emplace_back(name, generator.irr_dumps().at(name));
  }
  const Rpslyzer lyzer = Rpslyzer::from_texts(dumps, generator.caida_serial1());
  const verify::Verifier verifier = lyzer.verifier();
  Aggregator agg;
  for (const auto& dump : generator.bgp_dumps()) {
    for (const auto& route : bgp::parse_table_dump(dump)) {
      agg.add(route, verifier.verify_route(route));
    }
  }
  const std::string got = render(agg);

  std::ifstream in(std::string(RPSLYZER_GOLDEN_DIR) + "/aggregate_s0.25_seed1.txt");
  std::stringstream want;
  want << in.rdbuf();
  if (got != want.str()) {
    std::ofstream("aggregate_golden.actual") << got;
  }
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace rpslyzer::report
