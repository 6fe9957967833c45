// ir::RuleList: the immutable, shared rule list behind AutNum::imports and
// AutNum::exports. Copies share storage; equality checks identity first and
// falls back to comparing rule by rule; both IR codecs rebuild equal lists.

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "ir_codec.hpp"
#include "rpslyzer/ir/json_io.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/rpsl/object_parser.hpp"

namespace rpslyzer::ir {
namespace {

constexpr std::string_view kAutNum =
    "aut-num: AS64500\n"
    "as-name: EXAMPLE\n"
    "import: from AS64501 accept ANY\n"
    "mp-import: afi ipv6.unicast from AS64502 accept AS64502\n"
    "export: to AS64501 announce AS64500\n"
    "export: to AS64503 announce <^AS64500+$>\n"
    "mnt-by: MAINT-EXAMPLE\n"
    "source: TEST\n";

AutNum parse(std::string_view text) {
  util::Diagnostics diag;
  const auto raws = rpsl::lex_objects(text, "TEST", diag);
  EXPECT_EQ(raws.size(), 1u);
  rpsl::ParsedObject parsed = rpsl::parse_object(raws.at(0), diag);
  EXPECT_TRUE(std::holds_alternative<AutNum>(parsed));
  return std::get<AutNum>(std::move(parsed));
}

TEST(RuleList, CopySharesStorage) {
  const AutNum an = parse(kAutNum);
  ASSERT_EQ(an.imports.size(), 2u);
  ASSERT_EQ(an.exports.size(), 2u);
  const AutNum copy = an;
  EXPECT_TRUE(copy.imports.shares(an.imports));
  EXPECT_TRUE(copy.exports.shares(an.exports));
  EXPECT_EQ(&copy.imports[0], &an.imports[0]);
  EXPECT_EQ(&*copy.exports.begin(), &an.exports.front());
  EXPECT_FALSE(an.imports.shares(an.exports));
}

TEST(RuleList, EmptyListsHoldNoStorageAndShare) {
  const RuleList none;
  const RuleList built{std::vector<Rule>{}};
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(built.empty());
  EXPECT_EQ(built.size(), 0u);
  EXPECT_EQ(built.begin(), built.end());
  EXPECT_TRUE(none.shares(built));
  EXPECT_EQ(none, built);
  const AutNum an = parse("aut-num: AS64500\nsource: TEST\n");
  EXPECT_TRUE(an.imports.empty());
  EXPECT_TRUE(an.exports.shares(none));
}

TEST(RuleList, IndependentParsesCompareEqualRuleByRule) {
  const AutNum a = parse(kAutNum);
  const AutNum b = parse(kAutNum);
  // Two parses build two lists, so equality takes the element-wise path.
  EXPECT_FALSE(a.imports.shares(b.imports));
  EXPECT_FALSE(a.exports.shares(b.exports));
  EXPECT_EQ(a.imports, b.imports);
  EXPECT_EQ(a.exports, b.exports);
  EXPECT_EQ(a, b);
}

TEST(RuleList, OneDifferentRuleMakesAutNumsUnequal) {
  std::string changed(kAutNum);
  const std::string_view from = "to AS64501 announce AS64500";
  changed.replace(changed.find(from), from.size(), "to AS64501 announce ANY");
  const AutNum a = parse(kAutNum);
  const AutNum b = parse(changed);
  EXPECT_EQ(a.imports, b.imports);
  EXPECT_NE(a.exports, b.exports);
  EXPECT_NE(a, b);

  // A list that is a prefix of the other is unequal too.
  const AutNum shorter = parse(
      "aut-num: AS64500\nas-name: EXAMPLE\nimport: from AS64501 accept ANY\n"
      "export: to AS64501 announce AS64500\nexport: to AS64503 announce <^AS64500+$>\n"
      "mnt-by: MAINT-EXAMPLE\nsource: TEST\n");
  EXPECT_NE(a.imports, shorter.imports);
  EXPECT_EQ(a.exports, shorter.exports);
}

TEST(RuleList, IrCodecRoundTripGivesAnEqualAutNum) {
  const AutNum an = parse(kAutNum);
  Ir ir;
  ir.aut_nums.emplace(an.asn, an);
  ir.aut_nums.emplace(64510, parse("aut-num: AS64510\nsource: TEST\n"));
  persist::ByteWriter w;
  persist::encode_ir(w, ir);
  persist::ByteReader r(w.view());
  const Ir decoded = persist::decode_ir(r);
  EXPECT_TRUE(r.at_end());
  ASSERT_EQ(decoded.aut_nums.size(), 2u);
  const AutNum& back = decoded.aut_nums.at(an.asn);
  EXPECT_FALSE(back.imports.shares(an.imports));
  EXPECT_EQ(back, an);
  for (std::size_t i = 0; i < an.exports.size(); ++i) {
    EXPECT_EQ(back.exports[i].text, an.exports[i].text);  // not in operator==
  }
  EXPECT_TRUE(decoded.aut_nums.at(64510).imports.empty());
  EXPECT_EQ(decoded, ir);
}

TEST(RuleList, JsonRoundTripGivesAnEqualAutNum) {
  const AutNum an = parse(kAutNum);
  const AutNum back = aut_num_from_json(json::parse(json::dump(to_json(an))));
  EXPECT_FALSE(back.imports.shares(an.imports));
  EXPECT_EQ(back, an);
  for (std::size_t i = 0; i < an.imports.size(); ++i) {
    EXPECT_EQ(back.imports[i].text, an.imports[i].text);
  }
}

}  // namespace
}  // namespace rpslyzer::ir
