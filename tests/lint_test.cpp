#include "rpslyzer/lint/linter.hpp"

#include <gtest/gtest.h>

#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/lint/classify.hpp"

namespace rpslyzer::lint {
namespace {

ir::Ir corpus(std::string_view text) {
  util::Diagnostics diag;
  return irr::parse_dump(text, "TEST", diag);
}

std::vector<LintFinding> lint_text(std::string_view text, LintOptions options = {}) {
  static std::vector<ir::Ir> keep_alive;  // Index holds references
  keep_alive.push_back(corpus(text));
  static std::vector<std::unique_ptr<irr::Index>> indexes;
  indexes.push_back(std::make_unique<irr::Index>(keep_alive.back()));
  return lint(keep_alive.back(), *indexes.back(), options);
}

bool has(const std::vector<LintFinding>& findings, LintCode code,
         std::string_view object = {}) {
  for (const auto& f : findings) {
    if (f.code == code && (object.empty() || f.object == object)) return true;
  }
  return false;
}

TEST(Linter, NoRules) {
  auto findings = lint_text("aut-num: AS1\n");
  EXPECT_TRUE(has(findings, LintCode::kNoRules, "aut-num:AS1"));
}

TEST(Linter, ExportSelfShape) {
  auto findings = lint_text(
      "aut-num: AS1\nexport: to AS2 announce AS1\nimport: from AS2 accept ANY\n\n"
      "route: 10.0.0.0/8\norigin: AS1\n");
  EXPECT_TRUE(has(findings, LintCode::kExportSelfShape, "aut-num:AS1"));
}

TEST(Linter, ImportCustomerShape) {
  auto findings = lint_text(
      "aut-num: AS1\nimport: from AS3 accept AS3\n\nroute: 10.0.0.0/8\norigin: AS3\n");
  EXPECT_TRUE(has(findings, LintCode::kImportCustomerShape, "aut-num:AS1"));
  // PeerAS variant too.
  auto findings2 = lint_text(
      "aut-num: AS1\nimport: from AS3 accept PeerAS\n\nroute: 10.0.0.0/8\norigin: AS3\n");
  EXPECT_TRUE(has(findings2, LintCode::kImportCustomerShape));
}

TEST(Linter, MissingSetReferences) {
  auto findings = lint_text(
      "aut-num: AS1\n"
      "import: from AS-GONE accept ANY\n"
      "export: to AS2 announce RS-GONE\n"
      "import: from PRNG-GONE accept ANY\n"
      "import: from AS2 accept FLTR-GONE\n");
  EXPECT_TRUE(has(findings, LintCode::kRuleReferencesMissingSet));
  std::size_t count = 0;
  for (const auto& f : findings) {
    if (f.code == LintCode::kRuleReferencesMissingSet) ++count;
  }
  EXPECT_EQ(count, 4u);  // one per missing set class
}

TEST(Linter, MissingSetInAsPathRegex) {
  // The Table 2 census counts a regex as-set token as a filter reference;
  // the linter checks it like one.
  auto findings = lint_text("aut-num: AS1\nimport: from AS2 accept <^AS-MISSING+$>\n");
  EXPECT_NE(render(findings).find("error [missing-set-reference] aut-num:AS1: AS-path regex "
                                  "references undefined as-set AS-MISSING"),
            std::string::npos);
  // Inside a [...] set too, once per undefined set.
  auto in_set = lint_text(
      "aut-num: AS1\nimport: from AS2 accept <^[AS5 AS-GONE AS-HERE]$>\n\n"
      "as-set: AS-HERE\nmembers: AS5\n");
  std::size_t missing = 0;
  for (const auto& f : in_set) {
    if (f.code == LintCode::kRuleReferencesMissingSet) ++missing;
  }
  EXPECT_EQ(missing, 1u);
  // Regex ASN tokens are not filter ASNs: no zero-route finding for AS7/AS8.
  auto asns = lint_text("aut-num: AS1\nimport: from AS2 accept <^AS7 [AS8]$>\n");
  EXPECT_FALSE(has(asns, LintCode::kRuleReferencesZeroRouteAs));
  EXPECT_FALSE(has(asns, LintCode::kRuleReferencesMissingSet));
}

TEST(Linter, ZeroRouteAsReference) {
  auto findings = lint_text("aut-num: AS1\nexport: to AS2 announce AS1\n");
  EXPECT_TRUE(has(findings, LintCode::kRuleReferencesZeroRouteAs, "aut-num:AS1"));
  // With a route object registered, the finding disappears.
  auto clean = lint_text(
      "aut-num: AS1\nexport: to AS2 announce AS1\n\nroute: 10.0.0.0/8\norigin: AS1\n");
  EXPECT_FALSE(has(clean, LintCode::kRuleReferencesZeroRouteAs));
}

TEST(Linter, SkippedConstructsAndUnparseable) {
  auto findings = lint_text(
      "aut-num: AS1\n"
      "import: from AS2 accept community(65535:666)\n"
      "import: from AS3 accept <^[AS64512-AS65535]+$>\n"
      "import: from AS4 accept UTTER-GARBAGE\n");
  EXPECT_TRUE(has(findings, LintCode::kSkippedConstruct));
  EXPECT_TRUE(has(findings, LintCode::kUnparseableFilter));
}

TEST(Linter, AsSetFindings) {
  auto findings = lint_text(
      "as-set: AS-EMPTY\n\n"
      "as-set: AS-ONE\nmembers: AS5\n\n"
      "as-set: AS-WILD\nmembers: ANY\n\n"
      "as-set: AS-LOOPA\nmembers: AS-LOOPB\n\n"
      "as-set: AS-LOOPB\nmembers: AS-LOOPA\n\n"
      "as-set: AS-DANGLING\nmembers: AS-NOWHERE\n");
  EXPECT_TRUE(has(findings, LintCode::kEmptyAsSet, "as-set:AS-EMPTY"));
  EXPECT_TRUE(has(findings, LintCode::kSingleMemberAsSet, "as-set:AS-ONE"));
  EXPECT_TRUE(has(findings, LintCode::kAsSetContainsAny, "as-set:AS-WILD"));
  EXPECT_TRUE(has(findings, LintCode::kAsSetLoop, "as-set:AS-LOOPA"));
  EXPECT_TRUE(has(findings, LintCode::kAsSetMissingMember, "as-set:AS-DANGLING"));
}

TEST(Linter, DeepNesting) {
  auto findings = lint_text(
      "as-set: AS-D0\nmembers: AS-D1\n\nas-set: AS-D1\nmembers: AS-D2\n\n"
      "as-set: AS-D2\nmembers: AS-D3\n\nas-set: AS-D3\nmembers: AS-D4\n\n"
      "as-set: AS-D4\nmembers: AS-D5\n\nas-set: AS-D5\nmembers: AS9\n");
  EXPECT_TRUE(has(findings, LintCode::kAsSetDeepNesting, "as-set:AS-D0"));
  EXPECT_FALSE(has(findings, LintCode::kAsSetDeepNesting, "as-set:AS-D4"));
}

TEST(Linter, ReservedSetName) {
  auto findings = lint_text("as-set: AS-ANY\n");
  EXPECT_TRUE(has(findings, LintCode::kReservedSetName, "as-set:AS-ANY"));
}

TEST(Linter, UnreferencedRouteSet) {
  auto findings = lint_text(
      "aut-num: AS1\nexport: to AS2 announce RS-USED\n\n"
      "route-set: RS-USED\nmembers: 10.0.0.0/8\n\n"
      "route-set: RS-IDLE\nmembers: 192.0.2.0/24\n");
  EXPECT_TRUE(has(findings, LintCode::kRouteSetUnreferenced, "route-set:RS-IDLE"));
  EXPECT_FALSE(has(findings, LintCode::kRouteSetUnreferenced, "route-set:RS-USED"));
}

TEST(Linter, MultiOriginPrefix) {
  auto findings = lint_text(
      "route: 10.0.0.0/8\norigin: AS1\n\nroute: 10.0.0.0/8\norigin: AS2\n\n"
      "route: 192.0.2.0/24\norigin: AS3\n");
  EXPECT_TRUE(has(findings, LintCode::kMultiOriginPrefix, "route:10.0.0.0/8"));
  EXPECT_FALSE(has(findings, LintCode::kMultiOriginPrefix, "route:192.0.2.0/24"));
}

TEST(Linter, OptionsDisableChecks) {
  LintOptions options;
  options.include_info = false;
  auto findings = lint_text("aut-num: AS1\n", options);
  EXPECT_FALSE(has(findings, LintCode::kNoRules));  // info-level suppressed

  LintOptions no_sets;
  no_sets.check_as_sets = false;
  auto findings2 = lint_text("as-set: AS-EMPTY\n", no_sets);
  EXPECT_FALSE(has(findings2, LintCode::kEmptyAsSet));
}

TEST(Linter, RenderFormat) {
  auto findings = lint_text("as-set: AS-EMPTY\n");
  std::string text = render(findings);
  EXPECT_NE(text.find("warning [empty-as-set] as-set:AS-EMPTY:"), std::string::npos);
}

TEST(Classify, Buckets) {
  EXPECT_EQ(classify(nullptr).usage, UsageClass::kAbsent);

  ir::Ir ir = corpus(
      "aut-num: AS1\n\n"  // silent
      "aut-num: AS2\nimport: from AS9 accept ANY\n\n"  // minimal
      "aut-num: AS3\n"
      "import: from AS9 accept ANY\nimport: from AS8 accept AS8\n"
      "export: to AS9 announce AS-ME\nexport: to AS8 announce ANY\n\n"  // basic + sets
      "aut-num: AS4\nimport: from AS9 accept <^AS9$>\n"
      "import: from AS9 accept ANY\nimport: from AS7 accept ANY\n");  // expressive
  auto all = classify_all(ir, {999});
  EXPECT_EQ(all.at(1).usage, UsageClass::kSilent);
  EXPECT_EQ(all.at(2).usage, UsageClass::kMinimal);
  EXPECT_EQ(all.at(3).usage, UsageClass::kBasic);
  EXPECT_TRUE(all.at(3).uses_sets);
  EXPECT_EQ(all.at(4).usage, UsageClass::kExpressive);
  EXPECT_EQ(all.at(4).compound_rules, 1u);
  EXPECT_EQ(all.at(999).usage, UsageClass::kAbsent);

  auto hist = histogram(all);
  EXPECT_EQ(hist[UsageClass::kSilent], 1u);
  EXPECT_EQ(hist[UsageClass::kAbsent], 1u);
}

TEST(Classify, UsesSetsSeesNestedPeeringsAndRegexSets) {
  ir::Ir ir = corpus(
      "aut-num: AS1\nimport: from AS-A OR AS-B accept ANY\n\n"
      "aut-num: AS2\nimport: from AS2 accept <^AS-FOO+$>\n\n"
      "aut-num: AS3\nimport: from AS2 accept <^[AS5 AS-BAR]$>\n\n"
      "aut-num: AS4\nimport: from AS2 accept <^AS2 [AS5 AS6]+$>\n\n"
      "aut-num: AS5\nimport: from AS2 EXCEPT AS-C accept ANY\n");
  auto all = classify_all(ir);
  EXPECT_TRUE(all.at(1).uses_sets);
  EXPECT_TRUE(all.at(2).uses_sets);
  EXPECT_TRUE(all.at(3).uses_sets);
  EXPECT_FALSE(all.at(4).uses_sets);
  EXPECT_TRUE(all.at(5).uses_sets);
  // The usage class does not read uses_sets.
  EXPECT_EQ(all.at(1).usage, UsageClass::kMinimal);
  EXPECT_EQ(all.at(2).usage, UsageClass::kExpressive);
}

TEST(Classify, PolicyRichThreshold) {
  std::string text = "aut-num: AS1\n";
  for (int i = 0; i < 201; ++i) {
    text += "import: from AS" + std::to_string(1000 + i) + " accept ANY\n";
  }
  ir::Ir ir = corpus(text);
  EXPECT_EQ(classify(&ir.aut_nums.at(1)).usage, UsageClass::kPolicyRich);
}

}  // namespace
}  // namespace rpslyzer::lint
