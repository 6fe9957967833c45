// AsRelations::parse walks lines and fields in place. This suite keeps the
// earlier split-based parser verbatim as a reference and checks that both
// agree on seeded random input: the same links, the same clique and the
// same diagnostics, text and line numbers included.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::relations {
namespace {

namespace reference {

AsRelations parse(std::string_view text, util::Diagnostics& diagnostics) {
  AsRelations rel;
  std::size_t line_no = 0;
  for (auto line : util::split(text, '\n')) {
    ++line_no;
    line = util::trim(line);
    if (line.empty()) continue;
    if (line.front() == '#') {
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos &&
          (line.find("clique") != std::string_view::npos)) {
        std::vector<Asn> clique;
        for (auto token : util::split_ws(line.substr(colon + 1))) {
          if (auto asn = util::parse_u32(token)) clique.push_back(*asn);
        }
        if (!clique.empty()) rel.set_clique(std::move(clique));
      }
      continue;
    }
    auto fields = util::split(line, '|');
    if (fields.size() < 3) {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "malformed relationship line: '" + std::string(line) + "'", {},
                        {"relationships", line_no});
      continue;
    }
    auto a = util::parse_u32(util::trim(fields[0]));
    auto b = util::parse_u32(util::trim(fields[1]));
    std::string_view rel_field = util::trim(fields[2]);
    if (!a || !b || rel_field.empty()) {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "malformed relationship line: '" + std::string(line) + "'", {},
                        {"relationships", line_no});
      continue;
    }
    if (rel_field == "-1") {
      rel.add_provider_customer(*a, *b);
    } else if (rel_field == "0") {
      rel.add_peer_peer(*a, *b);
    } else {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "unknown relationship type: '" + std::string(rel_field) + "'", {},
                        {"relationships", line_no});
    }
  }
  return rel;
}

}  // namespace reference

// Fields drawn from valid ASNs and relationship codes and from the ways a
// field goes wrong: empty, blank-padded, non-numeric, too large.
std::string random_text(std::mt19937_64& rng) {
  auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const std::vector<std::string> asns = {"1",  "2",  "3",   "17", "65000", "4294967295",
                                         " 7", "8 ", "\t9", "",   "x",     "4294967296",
                                         "01", "-3"};
  const std::vector<std::string> kinds = {"-1", "0", " -1 ", "0\r", "7", "", "-", "1", "00"};
  const std::vector<std::string> blanks = {"", " ", "\t", "\r", "  \t "};
  std::string text;
  const std::size_t lines = pick(40);
  for (std::size_t i = 0; i < lines; ++i) {
    std::string line;
    switch (pick(8)) {
      case 0:
        line = blanks[pick(blanks.size())];
        break;
      case 1:
        line = pick(2) == 0 ? "# inferred clique: 1 2 x 17" : "# a comment | with | bars";
        break;
      case 2:  // too few fields
        line = asns[pick(asns.size())];
        if (pick(2) == 0) line += "|" + asns[pick(asns.size())];
        break;
      default: {
        line = asns[pick(asns.size())] + "|" + asns[pick(asns.size())] + "|" +
               kinds[pick(kinds.size())];
        if (pick(3) == 0) line += "|bgp";
        if (pick(6) == 0) line += "|";
        break;
      }
    }
    text += blanks[pick(blanks.size())] + line + blanks[pick(blanks.size())];
    if (i + 1 < lines || pick(2) == 0) text += pick(5) == 0 ? "\r\n" : "\n";
  }
  return text;
}

void expect_same_parse(std::string_view text) {
  util::Diagnostics got_diag;
  util::Diagnostics want_diag;
  const AsRelations got = AsRelations::parse(text, got_diag);
  const AsRelations want = reference::parse(text, want_diag);
  EXPECT_EQ(got.to_serial1(), want.to_serial1()) << text;
  EXPECT_EQ(got.link_count(), want.link_count()) << text;
  EXPECT_EQ(got.tier1(), want.tier1()) << text;
  ASSERT_EQ(got_diag.all().size(), want_diag.all().size()) << text;
  for (std::size_t i = 0; i < want_diag.all().size(); ++i) {
    const util::Diagnostic& g = got_diag.all()[i];
    const util::Diagnostic& w = want_diag.all()[i];
    EXPECT_EQ(g.severity, w.severity) << text;
    EXPECT_EQ(g.kind, w.kind) << text;
    EXPECT_EQ(g.message, w.message) << text;
    EXPECT_EQ(g.object_key, w.object_key) << text;
    EXPECT_EQ(g.location, w.location) << text;
  }
}

TEST(RelationsParseReference, AgreesOnEdgeCases) {
  for (std::string_view text :
       {"", "\n", "1|2|-1", "1|2|-1\n", "1|2", "1|2|", "|2|-1", "1||0", "1|2|0|", "1|2| 0 |x",
        " 1 | 2 | -1 \r\n2|3|0", "# input clique: 5 6\n5|6|0\n", "\n\n1|2|7\n\n1|2\n"}) {
    expect_same_parse(text);
  }
}

TEST(RelationsParseReference, AgreesOnSeededRandomText) {
  std::mt19937_64 rng(20261019);
  for (int trial = 0; trial < 2000; ++trial) {
    expect_same_parse(random_text(rng));
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace rpslyzer::relations
