// The §4 characterization of one synthetic corpus, pinned. The scale-0.25,
// seed-1 corpus (pipebench's small corpus) is loaded in full; the Table 2
// rows (ReferenceCensus), the shape counters (ShapeCensus), the Appendix E
// misuse sets (MisusePatterns), the usage-class histogram and the rendered
// lint findings must equal tests/golden/sec4_s0.25_seed1.txt. Every one of
// them reads what the corpus's rules name, so the file pins the policy-tree
// walk they share. On a mismatch the test writes what it got to
// sec4_golden.actual in its working directory.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rpslyzer/lint/classify.hpp"
#include "rpslyzer/lint/linter.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/stats/census.hpp"
#include "rpslyzer/synth/generator.hpp"

namespace rpslyzer {
namespace {

// FNV-1a over bytes.
class Digest {
 public:
  void mix(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  void mix(std::uint64_t word) { mix(std::string_view(reinterpret_cast<const char*>(&word), 8)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void table2_row(std::ostringstream& out, const char* name,
                const stats::ReferenceCensus::PerClass& row) {
  out << "table2 " << name << " defined " << row.defined << " overall "
      << row.referenced_overall << " peering " << row.referenced_in_peering << " filter "
      << row.referenced_in_filter << "\n";
}

void misuse_line(std::ostringstream& out, const char* name, const std::set<ir::Asn>& asns) {
  Digest digest;
  for (const ir::Asn asn : asns) digest.mix(std::uint64_t{asn});
  out << "misuse " << name << " " << asns.size() << " " << digest.hex() << "\n";
}

std::string render(const Rpslyzer& lyzer) {
  const ir::Ir& ir = lyzer.ir();
  std::ostringstream out;

  const auto refs = stats::ReferenceCensus::compute(ir);
  table2_row(out, "aut-num", refs.aut_nums);
  table2_row(out, "as-set", refs.as_sets);
  table2_row(out, "route-set", refs.route_sets);
  table2_row(out, "peering-set", refs.peering_sets);
  table2_row(out, "filter-set", refs.filter_sets);

  const auto shapes = stats::ShapeCensus::compute(ir);
  out << "peerings " << shapes.peerings_total << " single_asn_or_any "
      << shapes.peerings_single_asn_or_any << "\n";
  out << "filters " << shapes.filters_total << " as_set " << shapes.filters_as_set << " asn "
      << shapes.filters_asn << " route_set " << shapes.filters_route_set << " any "
      << shapes.filters_any << " prefix_set " << shapes.filters_prefix_set << " as_path "
      << shapes.filters_as_path << " compound " << shapes.filters_compound << " other "
      << shapes.filters_other << "\n";
  out << "rules " << shapes.rules_total << " bgpq4 " << shapes.rules_bgpq4_compatible
      << " ases " << shapes.ases_with_rules << " ases_all_bgpq4 "
      << shapes.ases_all_rules_bgpq4_compatible << "\n";

  const auto misuse = stats::MisusePatterns::compute(ir);
  misuse_line(out, "import_customer", misuse.import_customer);
  misuse_line(out, "export_self", misuse.export_self);

  const auto classes = lint::classify_all(ir);
  for (const auto& [usage, count] : lint::histogram(classes)) {
    out << "class " << lint::to_string(usage) << " " << count << "\n";
  }
  std::size_t uses_sets = 0;
  for (const auto& [asn, c] : classes) uses_sets += c.uses_sets ? 1 : 0;
  out << "uses_sets " << uses_sets << "\n";

  const auto findings = lint::lint(ir, lyzer.index());
  std::map<std::string, std::size_t> by_code;
  for (const auto& f : findings) ++by_code[lint::to_string(f.code)];
  for (const auto& [code, count] : by_code) out << "lint " << code << " " << count << "\n";
  const std::string rendered = lint::render(findings);
  Digest digest;
  digest.mix(rendered);
  out << "lint_render " << findings.size() << " " << rendered.size() << " " << digest.hex()
      << "\n";
  return out.str();
}

TEST(Sec4Golden, SmallSyntheticCorpusMatchesPinnedCensus) {
  synth::SynthConfig config;
  config.seed = 1;
  config.scale = 0.25;
  const synth::InternetGenerator generator(config);
  std::vector<std::pair<std::string, std::string>> dumps;
  for (const auto& name : synth::irr_names()) {
    dumps.emplace_back(name, generator.irr_dumps().at(name));
  }
  const Rpslyzer lyzer = Rpslyzer::from_texts(dumps, generator.caida_serial1());
  const std::string got = render(lyzer);

  std::ifstream in(std::string(RPSLYZER_GOLDEN_DIR) + "/sec4_s0.25_seed1.txt");
  std::stringstream want;
  want << in.rdbuf();
  if (got != want.str()) {
    std::ofstream("sec4_golden.actual") << got;
  }
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace rpslyzer
