#include "rpslyzer/verify/verifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include "evaluate.hpp"
#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/loader.hpp"

namespace rpslyzer::verify {

// gtest prints a mismatching item as its Appendix C text, not raw bytes.
void PrintTo(const ReportItem& item, std::ostream* os) { *os << to_string(item); }

namespace {

using bgp::Route;

struct World {
  ir::Ir ir;
  irr::Index index;
  relations::AsRelations relations;

  World(std::string_view rpsl, std::string_view serial1, util::Diagnostics& diag)
      : ir(irr::parse_dump(rpsl, "TEST", diag)),
        index(ir),
        relations(relations::AsRelations::parse(serial1, diag)) {}
};

Route route(std::string_view prefix, std::vector<bgp::Asn> path) {
  return Route{*net::Prefix::parse(prefix), std::move(path)};
}

TEST(Verifier, StrictMatchAnyFilter) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS2\nimport: from AS1 accept ANY\nexport: to AS1 announce ANY\n\n"
      "aut-num: AS1\nexport: to AS2 announce ANY\nimport: from AS2 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].from, 1u);
  EXPECT_EQ(hops[0].to, 2u);
  EXPECT_EQ(hops[0].export_result.status, Status::kVerified);
  EXPECT_EQ(hops[0].import_result.status, Status::kVerified);
}

TEST(Verifier, StrictMatchAsnFilterViaRouteObject) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS2\nimport: from AS1 accept AS1\n\n"
      "aut-num: AS1\nexport: to AS2 announce AS1\n\n"
      "route: 10.1.0.0/16\norigin: AS1\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("10.1.0.0/16", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kVerified);
  EXPECT_EQ(hops[0].import_result.status, Status::kVerified);
  // A prefix without a route object is not strictly verified.
  auto hops2 = v.verify_route(route("10.2.0.0/16", {2, 1}));
  EXPECT_NE(hops2[0].import_result.status, Status::kVerified);
}

TEST(Verifier, UnrecordedAutNum) {
  util::Diagnostics diag;
  World w("aut-num: AS2\nimport: from AS1 accept ANY\n", "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kUnrecorded);
  ASSERT_EQ(hops[0].export_result.items.size(), 1u);
  EXPECT_EQ(hops[0].export_result.items[0].reason, Reason::kUnrecordedAutNum);
  EXPECT_EQ(hops[0].import_result.status, Status::kVerified);
}

TEST(Verifier, UnrecordedNoRulesForDirection) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nimport: from AS2 accept ANY\n\n"  // no export rules
      "aut-num: AS2\nimport: from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kUnrecorded);
  EXPECT_EQ(hops[0].export_result.items[0].reason, Reason::kUnrecordedNoRules);
}

TEST(Verifier, UnrecordedMissingAsSetInFilter) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nexport: to AS2 announce AS-GONE\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kUnrecorded);
  EXPECT_EQ(hops[0].export_result.items[0].reason, Reason::kUnrecordedAsSet);
  EXPECT_EQ(hops[0].export_result.items[0].name, "AS-GONE");
}

TEST(Verifier, UnrecordedZeroRouteAs) {
  // Filter references AS1, which has no route objects at all.
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nexport: to AS2 announce AS1\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kUnrecorded);
  EXPECT_EQ(hops[0].export_result.items[0].reason, Reason::kUnrecordedZeroRouteAs);
}

TEST(Verifier, UnverifiedPeeringMismatchWithItems) {
  // Appendix C: AS141893 exports only to AS58552/AS131755; exporting to
  // AS56239 is unverified with both remotes reported.
  util::Diagnostics diag;
  World w(
      "aut-num: AS141893\n"
      "export: to AS58552 announce AS141893\n"
      "export: to AS131755 announce AS141893\n"
      "import: from AS58552 accept ANY\n\n"
      "aut-num: AS56239\nimport: from AS141893 accept ANY\n",
      "", diag);
  VerifyOptions options;
  options.safelists = false;
  Verifier v(w.index, w.relations, options);
  auto hops = v.verify_route(route("103.162.114.0/23", {56239, 141893}));
  const CheckResult& exp = hops[0].export_result;
  EXPECT_EQ(exp.status, Status::kUnverified);
  ASSERT_EQ(exp.items.size(), 2u);
  EXPECT_EQ(exp.items[0], (ReportItem{Reason::kMatchRemoteAsNum, 58552, {}}));
  EXPECT_EQ(exp.items[1], (ReportItem{Reason::kMatchRemoteAsNum, 131755, {}}));
}

TEST(Verifier, SkipCommunityFilter) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nexport: to AS2 announce community(65535:666)\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kSkip);
  EXPECT_EQ(hops[0].export_result.items[0].reason, Reason::kSkipCommunityFilter);
}

TEST(Verifier, SkipRegexConstructOnlyInFaithfulMode) {
  util::Diagnostics diag;
  const char* rpsl =
      "aut-num: AS1\nexport: to AS2 announce <^[AS64512-AS65535]+$>\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n";
  World w(rpsl, "", diag);
  Verifier faithful(w.index, w.relations);
  auto hops = faithful.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kSkip);
  EXPECT_EQ(hops[0].export_result.items[0].reason, Reason::kSkipRegexConstruct);

  VerifyOptions extended;
  extended.paper_faithful_skips = false;
  Verifier evaluating(w.index, w.relations, extended);
  // aut-num AS1 does not exist for 64512; craft the route so AS1 exports.
  auto hops2 = evaluating.verify_route(route("8.8.8.0/24", {2, 1}));
  // Path announced by AS1 is {1}: not in the private range -> filter fails.
  EXPECT_EQ(hops2[0].export_result.status, Status::kUnverified);
}

TEST(Verifier, SkipBeatsUnrecordedAndMismatch) {
  // One community rule (skip) plus one mismatching rule: Skip wins (§5
  // ordering puts Skip right after Verified).
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\n"
      "export: to AS9 announce ANY\n"
      "export: to AS2 announce community(65535:666)\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kSkip);
}

TEST(Verifier, VerifiedBeatsEverything) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\n"
      "export: to AS2 announce community(65535:666)\n"
      "export: to AS2 announce ANY\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kVerified);
}

TEST(Verifier, RelaxedExportSelf) {
  // AS1 announces "itself" but the prefix belongs to its customer AS3,
  // whose route object exists: Export Self relaxation (§5.1.1, App. C).
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nexport: to AS2 announce AS1\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n\n"
      "route: 10.0.0.0/8\norigin: AS1\n\n"
      "route: 10.3.0.0/16\norigin: AS3\n",
      "1|3|-1\n",  // AS1 is AS3's provider
      diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("10.3.0.0/16", {2, 1, 3}));
  const CheckResult& exp = hops[1].export_result;  // AS1 -> AS2 hop
  EXPECT_EQ(exp.status, Status::kRelaxed);
  EXPECT_EQ(exp.items.back().reason, Reason::kRelaxedExportSelf);
}

TEST(Verifier, ExportSelfRequiresConeRouteObject) {
  // Same topology but no route object for the customer prefix: the
  // relaxation must NOT fire (Appendix C's AS56239 example); uphill
  // safelisting is also disabled here to observe the raw result.
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nexport: to AS2 announce AS1\n\n"
      "route: 10.0.0.0/8\norigin: AS1\n",
      "1|3|-1\n", diag);
  VerifyOptions options;
  options.safelists = false;
  Verifier v(w.index, w.relations, options);
  auto hops = v.verify_route(route("10.99.0.0/16", {2, 1, 3}));
  // 10.99/16 is inside AS1's aggregate but has no exact route object from
  // the cone; strict filter fails, relaxation fails.
  EXPECT_EQ(hops[1].export_result.status, Status::kUnverified);
}

TEST(Verifier, RelaxedImportCustomer) {
  // "import: from AS3 accept AS3" by AS3's provider AS1: treated as ANY.
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nimport: from AS3 accept AS3\n\n"
      "route: 10.3.0.0/16\norigin: AS3\n",
      "1|3|-1\n", diag);
  Verifier v(w.index, w.relations);
  // AS3 announces a route originated by its own customer (AS4), so the
  // strict filter (AS3's route objects) fails.
  auto hops = v.verify_route(route("10.44.0.0/16", {1, 3, 4}));
  const CheckResult& imp = hops[1].import_result;  // AS1 imports from AS3
  EXPECT_EQ(imp.status, Status::kRelaxed);
  EXPECT_EQ(imp.items.back().reason, Reason::kRelaxedImportCustomer);
}

TEST(Verifier, ImportCustomerRequiresCustomerRelationship) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nimport: from AS3 accept AS3\n\n"
      "route: 10.3.0.0/16\norigin: AS3\n",
      "",  // no relationship data
      diag);
  VerifyOptions options;
  options.safelists = false;
  Verifier v(w.index, w.relations, options);
  auto hops = v.verify_route(route("10.44.0.0/16", {1, 3, 4}));
  EXPECT_EQ(hops[1].import_result.status, Status::kUnverified);
}

TEST(Verifier, RelaxedImportCustomerViaPeerAs) {
  // Appendix A: a PeerAS filter under the import-customer relaxation.
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nimport: from AS3 accept PeerAS\n\n"
      "route: 10.3.0.0/16\norigin: AS3\n",
      "1|3|-1\n", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("10.44.0.0/16", {1, 3, 4}));
  EXPECT_EQ(hops[1].import_result.status, Status::kRelaxed);
  EXPECT_EQ(hops[1].import_result.items.back().reason, Reason::kRelaxedImportCustomer);
}

TEST(Verifier, RelaxedMissingRoutes) {
  // Filter references the path origin AS4 (which has SOME route objects,
  // just not this prefix): Missing Routes relaxation.
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nimport: from AS3 accept AS4\n\n"
      "route: 10.4.0.0/16\norigin: AS4\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("10.77.0.0/16", {1, 3, 4}));
  EXPECT_EQ(hops[1].import_result.status, Status::kRelaxed);
  EXPECT_EQ(hops[1].import_result.items.back().reason, Reason::kRelaxedMissingRoutes);
}

TEST(Verifier, RelaxedMissingRoutesViaAsSet) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nimport: from AS3 accept AS-CONE\n\n"
      "as-set: AS-CONE\nmembers: AS3, AS4\n\n"
      "route: 10.4.0.0/16\norigin: AS4\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("10.77.0.0/16", {1, 3, 4}));
  EXPECT_EQ(hops[1].import_result.status, Status::kRelaxed);
  EXPECT_EQ(hops[1].import_result.items.back().reason, Reason::kRelaxedMissingRoutes);
}

TEST(Verifier, RelaxationsCanBeDisabled) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nimport: from AS3 accept AS4\n\n"
      "route: 10.4.0.0/16\norigin: AS4\n",
      "", diag);
  VerifyOptions options;
  options.relaxations = false;
  options.safelists = false;
  Verifier v(w.index, w.relations, options);
  auto hops = v.verify_route(route("10.77.0.0/16", {1, 3, 4}));
  EXPECT_EQ(hops[1].import_result.status, Status::kUnverified);
}

TEST(Verifier, SafelistOnlyProviderPolicies) {
  // AS5 only has rules for its provider AS6; an import from customer AS7
  // is safelisted.
  util::Diagnostics diag;
  World w(
      "aut-num: AS5\nimport: from AS6 accept ANY\nexport: to AS6 announce AS5\n\n"
      "route: 10.5.0.0/16\norigin: AS5\n",
      "6|5|-1\n5|7|-1\n", diag);
  Verifier v(w.index, w.relations);
  EXPECT_TRUE(v.only_provider_policies(5));
  auto hops = v.verify_route(route("10.77.0.0/16", {5, 7}));
  const CheckResult& imp = hops[0].import_result;
  EXPECT_EQ(imp.status, Status::kSafelisted);
  EXPECT_EQ(imp.items.back().reason, Reason::kSpecCustomerOnlyProviderPolicies);
}

TEST(Verifier, OnlyProviderPoliciesRejectsCatchAll) {
  util::Diagnostics diag;
  World w("aut-num: AS5\nimport: from AS-ANY accept ANY\n", "6|5|-1\n", diag);
  Verifier v(w.index, w.relations);
  EXPECT_FALSE(v.only_provider_policies(5));
}

TEST(Verifier, SafelistTier1Pair) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS10\nexport: to AS99 announce AS10\nimport: from AS99 accept AS99\n\n"
      "aut-num: AS20\nexport: to AS99 announce AS20\nimport: from AS99 accept AS99\n",
      "# inferred clique: 10 20\n10|20|0\n10|1|-1\n20|1|-1\n", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {10, 20}));
  EXPECT_EQ(hops[0].export_result.status, Status::kSafelisted);
  EXPECT_EQ(hops[0].export_result.items.back().reason, Reason::kSpecTier1Pair);
  EXPECT_EQ(hops[0].import_result.status, Status::kSafelisted);
}

TEST(Verifier, SafelistUphill) {
  // Customer AS3 exporting to provider AS1 with no matching rules.
  util::Diagnostics diag;
  World w(
      "aut-num: AS3\nexport: to AS9 announce AS3\nimport: from AS9 accept ANY\n\n"
      "aut-num: AS1\nimport: from AS9 accept ANY\nexport: to AS9 announce ANY\n",
      "1|3|-1\n", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("8.8.8.0/24", {1, 3}));
  EXPECT_EQ(hops[0].export_result.status, Status::kSafelisted);
  EXPECT_EQ(hops[0].export_result.items.back().reason, Reason::kSpecUphill);
  EXPECT_EQ(hops[0].import_result.status, Status::kSafelisted);
  EXPECT_EQ(hops[0].import_result.items.back().reason, Reason::kSpecUphill);
}

TEST(Verifier, DownhillIsNotSafelisted) {
  // The paper "considered similarly safelisting downhill propagation but
  // decided against it".
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nexport: to AS9 announce ANY\nimport: from AS9 accept ANY\n\n"
      "aut-num: AS3\nimport: from AS9 accept ANY\nexport: to AS9 announce ANY\n",
      "1|3|-1\n", diag);
  Verifier v(w.index, w.relations);
  // Route flows downhill: provider AS1 exports to customer AS3.
  auto hops = v.verify_route(route("8.8.8.0/24", {3, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kUnverified);
  EXPECT_EQ(hops[0].import_result.status, Status::kUnverified);
}

TEST(Verifier, AfiGatesRuleApplicability) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nmp-export: afi ipv6.unicast to AS2 announce ANY\n\n"
      "aut-num: AS2\nmp-import: afi ipv6.unicast from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto v6 = v.verify_route(route("2001:db8::/32", {2, 1}));
  EXPECT_EQ(v6[0].export_result.status, Status::kVerified);
  EXPECT_EQ(v6[0].import_result.status, Status::kVerified);
  auto v4 = v.verify_route(route("8.8.8.0/24", {2, 1}));
  EXPECT_EQ(v4[0].export_result.status, Status::kUnverified);
}

TEST(Verifier, PlainImportDoesNotCoverV6) {
  util::Diagnostics diag;
  World w(
      "aut-num: AS1\nexport: to AS2 announce ANY\n\n"
      "aut-num: AS2\nimport: from AS1 accept ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto hops = v.verify_route(route("2001:db8::/32", {2, 1}));
  EXPECT_EQ(hops[0].export_result.status, Status::kUnverified);
  EXPECT_EQ(hops[0].import_result.status, Status::kUnverified);
}

TEST(Verifier, AsPathRegexFilterMatches) {
  // The paper's §2 example: accept routes from AS13911 originated by
  // AS6327 only.
  util::Diagnostics diag;
  World w(
      "aut-num: AS14595\n"
      "mp-import: afi any.unicast from AS13911 accept <^AS13911 AS6327+$>\n\n"
      "aut-num: AS13911\nexport: to AS14595 announce ANY\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto good = v.verify_route(route("8.8.8.0/24", {14595, 13911, 6327}));
  EXPECT_EQ(good[1].import_result.status, Status::kVerified);
  auto bad = v.verify_route(route("8.8.8.0/24", {14595, 13911, 7777}));
  EXPECT_EQ(bad[1].import_result.status, Status::kUnverified);
}

TEST(Verifier, StructuredRefineRule) {
  // Both sides of a REFINE must match.
  util::Diagnostics diag;
  World w(
      "aut-num: AS2\n"
      "mp-import: afi any { from AS1 accept ANY; } REFINE afi any { from AS-ANY accept "
      "<AS3$>; }\n",
      "", diag);
  Verifier v(w.index, w.relations);
  auto ok = v.verify_route(route("8.8.8.0/24", {2, 1, 3}));
  EXPECT_EQ(ok[1].import_result.status, Status::kVerified);
  auto fail = v.verify_route(route("8.8.8.0/24", {2, 1, 4}));
  EXPECT_EQ(fail[1].import_result.status, Status::kUnverified);
}

TEST(Verifier, StructuredExceptRule) {
  // EXCEPT semantics (RFC 2622 §6.6): routes matching the exception's
  // peering AND filter take the exception; everything else falls back to
  // the base policy.
  util::Diagnostics diag;
  World w(
      "aut-num: AS2\n"
      "import: { from AS-ANY accept <AS9$>; } EXCEPT { from AS1 accept ANY; }\n",
      "", diag);
  Verifier v(w.index, w.relations);
  // From AS1: the exception accepts anything.
  auto via_exception = v.verify_route(route("8.8.8.0/24", {2, 1, 4}));
  EXPECT_EQ(via_exception[1].import_result.status, Status::kVerified);
  // From AS3: only the base policy applies, requiring origin AS9.
  auto via_base = v.verify_route(route("8.8.8.0/24", {2, 3, 9}));
  EXPECT_EQ(via_base[1].import_result.status, Status::kVerified);
  auto fail = v.verify_route(route("8.8.8.0/24", {2, 3, 4}));
  EXPECT_EQ(fail[1].import_result.status, Status::kUnverified);
}

TEST(Verifier, AppendixCScenario) {
  // The full 6-hop example: prefix 103.162.114.0/23, path
  // {3257 1299 6939 133840 56239 141893}.
  util::Diagnostics diag;
  World w(
      // AS141893: two export rules, none covering AS56239.
      "aut-num: AS141893\n"
      "export: to AS58552 announce AS141893\n"
      "export: to AS131755 announce AS141893\n"
      "import: from AS58552 accept ANY\n\n"
      // AS56239: rules only for providers AS55685 (and the export below).
      "aut-num: AS56239\n"
      "import: from AS55685 accept ANY\n"
      "export: to AS133840 announce AS56239\n\n"
      // AS133840: rules only for its provider AS55685.
      "aut-num: AS133840\n"
      "import: from AS55685 accept ANY\n"
      "export: to AS55685 announce AS133840\n\n"
      // AS6939: open policy.
      "aut-num: AS6939\n"
      "import: from AS-ANY accept ANY\n"
      "export: to AS-ANY announce ANY\n\n"
      // AS1299: strict import; exports reference as-sets missing from the
      // IRRs.
      "aut-num: AS1299\n"
      "export: to AS3257 announce AS1299:AS-TWELVE99-CUSTOMER-V4 OR "
      "AS1299:AS-TWELVE99-PEER-V4\n"
      "import: from AS6939 accept ANY\n\n"
      // AS3257: a rule for a different remote only.
      "aut-num: AS3257\n"
      "import: from AS12 accept ANY\n"
      "export: to AS12 announce ANY\n\n"
      // Route object for AS56239's own space (not the verified prefix).
      "route: 103.123.0.0/16\norigin: AS56239\n",
      // Relationships: 55685 is the provider the small ASes wrote rules
      // for; 133840 provider of 56239; 6939 provider of 133840; 1299/3257
      // Tier-1 clique; 6939 customer of 1299. AS141893 has NO inferred
      // relationship with AS56239 — Appendix C notes AS137296 is "the only
      // AS in AS56239's customer cone".
      "# inferred clique: 1299 3257\n"
      "1299|3257|0\n"
      "56239|137296|-1\n"
      "55685|56239|-1\n"
      "55685|133840|-1\n"
      "133840|56239|-1\n"
      "6939|133840|-1\n"
      "1299|6939|-1\n",
      diag);
  Verifier v(w.index, w.relations);
  Route r = route("103.162.114.0/23", {3257, 1299, 6939, 133840, 56239, 141893});
  auto hops = v.verify_route(r);
  ASSERT_EQ(hops.size(), 5u);

  // Hop 0 (origin side): AS141893 -> AS56239.
  EXPECT_EQ(hops[0].export_result.status, Status::kUnverified);  // BadExport
  EXPECT_EQ(hops[0].import_result.status, Status::kSafelisted);  // MehImport (OPP)
  EXPECT_EQ(hops[0].import_result.items.back().reason,
            Reason::kSpecOtherOnlyProviderPolicies);

  // Hop 1: AS56239 -> AS133840: export filter fails even relaxed -> uphill.
  EXPECT_EQ(hops[1].export_result.status, Status::kSafelisted);
  EXPECT_EQ(hops[1].export_result.items.back().reason, Reason::kSpecUphill);
  EXPECT_EQ(hops[1].import_result.status, Status::kSafelisted);
  EXPECT_EQ(hops[1].import_result.items.back().reason,
            Reason::kSpecCustomerOnlyProviderPolicies);

  // Hop 2: AS133840 -> AS6939: uphill export; strict import (AS-ANY/ANY).
  EXPECT_EQ(hops[2].export_result.status, Status::kSafelisted);
  EXPECT_EQ(hops[2].export_result.items.back().reason, Reason::kSpecUphill);
  EXPECT_EQ(hops[2].import_result.status, Status::kVerified);  // OkImport

  // Hop 3: AS6939 -> AS1299: both strict.
  EXPECT_EQ(hops[3].export_result.status, Status::kVerified);
  EXPECT_EQ(hops[3].import_result.status, Status::kVerified);

  // Hop 4: AS1299 -> AS3257: unrecorded as-sets; Tier-1 pair import.
  EXPECT_EQ(hops[4].export_result.status, Status::kUnrecorded);  // UnrecExport
  ASSERT_GE(hops[4].export_result.items.size(), 1u);
  EXPECT_EQ(hops[4].export_result.items[0].reason, Reason::kUnrecordedAsSet);
  EXPECT_EQ(hops[4].import_result.status, Status::kSafelisted);  // MehImport
  EXPECT_EQ(hops[4].import_result.items.back().reason, Reason::kSpecTier1Pair);

  // The textual report renders Appendix-C style lines.
  std::string report = v.report(r);
  EXPECT_NE(report.find("BadExport { from: 141893, to: 56239"), std::string::npos);
  EXPECT_NE(report.find("MatchRemoteAsNum(58552)"), std::string::npos);
  EXPECT_NE(report.find("OkImport { from: 133840, to: 6939 }"), std::string::npos);
  EXPECT_NE(report.find("UnrecordedAsSet(\"AS1299:AS-TWELVE99-CUSTOMER-V4\")"),
            std::string::npos);
  EXPECT_NE(report.find("SpecTier1Pair"), std::string::npos);
}

TEST(Verifier, ShortPathsHaveNoHops) {
  util::Diagnostics diag;
  World w("", "", diag);
  Verifier v(w.index, w.relations);
  EXPECT_TRUE(v.verify_route(route("8.8.8.0/24", {1})).empty());
  EXPECT_TRUE(v.verify_route(route("8.8.8.0/24", {})).empty());
}

TEST(Verifier, UndeclaredPeerOfLargeAsMatchesOnBothBackends) {
  // An AS with a hundred single-peer rules, the first peer named twice, checked
  // against peers it never names: the compiled backend answers these from
  // its precomputed reject-all list, the interpreted one rule by rule.
  std::string rpsl = "aut-num: AS2\nimport: from AS1000 accept AS1000\n";
  for (int peer = 1000; peer < 1100; ++peer) {
    rpsl += "import: from AS" + std::to_string(peer) + " accept ANY\n";
    rpsl += "export: to AS" + std::to_string(peer) + " announce AS2\n";
  }
  rpsl += "mp-import: afi ipv6.unicast from AS1100 accept ANY\n";
  util::Diagnostics diag;
  // AS3 buys transit from AS2 (uphill import); AS4 has no relationship.
  World w(rpsl, "2|3|-1\n", diag);
  auto snapshot = compile::CompiledPolicySnapshot::build(
      std::shared_ptr<const irr::Index>(std::shared_ptr<void>(), &w.index),
      std::shared_ptr<const relations::AsRelations>(std::shared_ptr<void>(), &w.relations));
  Verifier interpreted(w.index, w.relations);
  Verifier compiled(snapshot);
  for (const char* prefix : {"10.0.0.0/8", "2001:db8::/32"}) {
    for (bgp::Asn peer : {3u, 4u, 1000u, 1050u, 1100u}) {
      const Route r = route(prefix, {2, peer});
      EXPECT_EQ(compiled.report(r), interpreted.report(r)) << prefix << " AS" << peer;
      const CheckResult want = interpreted.check_import(2, peer, r, {});
      const CheckResult got = compiled.check_import(2, peer, r, {});
      EXPECT_EQ(got.status, want.status) << prefix << " AS" << peer;
      EXPECT_EQ(got.items, want.items) << prefix << " AS" << peer;
    }
  }
  const CheckResult uphill = compiled.check_import(2, 3, route("10.0.0.0/8", {2, 3}), {});
  EXPECT_EQ(uphill.status, Status::kSafelisted);
  ASSERT_EQ(uphill.items.size(), 101u);  // AS1000 once, then the uphill item
  EXPECT_EQ(uphill.items.back().reason, Reason::kSpecUphill);
  const CheckResult v6 = compiled.check_import(2, 4, route("2001:db8::/32", {2, 4}), {});
  EXPECT_EQ(v6.status, Status::kUnverified);
  ASSERT_EQ(v6.items.size(), 1u);  // only the mp-import covers IPv6
  EXPECT_EQ(v6.items[0], (ReportItem{Reason::kMatchRemoteAsNum, 1100, {}}));
}

// The rule fold as it was before RuleMerge, kept as the reference: the
// better outcome wins, and when both are mismatches the loser's items are
// appended to the winner's, each compared with every item kept so far.
namespace reference {

void append(std::vector<ReportItem>& dst, const std::vector<ReportItem>& src) {
  for (const auto& item : src) {
    bool dup = false;
    for (const auto& existing : dst) {
      if (existing == item) {
        dup = true;
        break;
      }
    }
    if (!dup) dst.push_back(item);
  }
}

internal::RuleOutcome combine_best(internal::RuleOutcome a, internal::RuleOutcome b) {
  using internal::EvalClass;
  auto rank = [](EvalClass c) {
    switch (c) {
      case EvalClass::kMatch:
        return 0;
      case EvalClass::kSkip:
        return 1;
      case EvalClass::kUnrecorded:
        return 2;
      case EvalClass::kNoMatchFilter:
        return 3;
      case EvalClass::kNoMatchPeering:
        return 4;
      case EvalClass::kNotApplicable:
        return 5;
    }
    return 5;
  };
  internal::RuleOutcome& best = rank(a.cls) <= rank(b.cls) ? a : b;
  internal::RuleOutcome& rest = rank(a.cls) <= rank(b.cls) ? b : a;
  if (best.cls == EvalClass::kNoMatchFilter || best.cls == EvalClass::kNoMatchPeering) {
    if (rest.cls == EvalClass::kNoMatchFilter || rest.cls == EvalClass::kNoMatchPeering) {
      append(best.items, rest.items);
    }
  }
  return std::move(best);
}

}  // namespace reference

// MatchRemoteAsNum(a) for each ASN: a fast-rejected rule's items.
std::vector<ReportItem> peer_miss_items(const std::vector<Asn>& asns) {
  std::vector<ReportItem> items;
  for (Asn a : asns) items.push_back({Reason::kMatchRemoteAsNum, a, {}});
  return items;
}

// One rule's outcome, fed to both folds: a fast-rejected rule carries only
// its ASN list.
struct RuleStep {
  internal::RuleOutcome outcome;
  std::vector<Asn> peer_misses;
  bool fast_reject = false;
};

void expect_same_fold(const std::vector<RuleStep>& steps, const std::string& what) {
  internal::RuleOutcome want{internal::EvalClass::kNotApplicable, {}};
  internal::RuleMerge got;
  for (const RuleStep& step : steps) {
    if (step.fast_reject) {
      const std::vector<ReportItem> misses = peer_miss_items(step.peer_misses);
      want = reference::combine_best(std::move(want),
                                     {internal::EvalClass::kNoMatchPeering, misses});
      got.add(internal::EvalClass::kNoMatchPeering, misses);
    } else {
      want = reference::combine_best(std::move(want), step.outcome);
      got.add(step.outcome);
    }
  }
  EXPECT_EQ(got.cls(), want.cls) << what;
  const internal::RuleOutcome taken = got.take();
  EXPECT_EQ(taken.items, want.items) << what;
}

TEST(RuleMerge, MatchesTheQuadraticFoldOnRandomRuleSequences) {
  using internal::EvalClass;
  // Small pools so items repeat within and across rules; "as-a" and "AS-A"
  // are distinct spellings, so distinct items.
  const std::vector<ItemName> names = {{}, "AS-A", "as-a", "AS-B", "AS-C:AS-D"};
  const std::vector<Reason> reasons = {Reason::kMatchRemoteAsNum, Reason::kMatchRemoteAsSet,
                                       Reason::kMatchFilterAsNum, Reason::kMatchFilter,
                                       Reason::kUnrecordedAsSet, Reason::kSkipCommunityFilter};
  std::mt19937 rng(20240917);
  auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<RuleStep> steps(1 + pick(30));
    for (RuleStep& step : steps) {
      // Long lists now and then, so both the scan and the index run.
      const std::size_t length = pick(4) == 0 ? pick(60) : pick(5);
      const Asn asn_pool = pick(2) == 0 ? 8 : 200;
      if (pick(3) == 0) {
        step.fast_reject = true;
        for (std::size_t i = 0; i < length; ++i) step.peer_misses.push_back(1 + pick(asn_pool));
        continue;
      }
      step.outcome.cls = static_cast<EvalClass>(pick(6));
      for (std::size_t i = 0; i < length; ++i) {
        step.outcome.items.push_back({reasons[pick(reasons.size())],
                                      static_cast<Asn>(pick(asn_pool)),
                                      names[pick(names.size())]});
      }
    }
    expect_same_fold(steps, "trial " + std::to_string(trial));
    if (HasFailure()) break;
  }
}

TEST(RuleMerge, FilterMismatchOvertakesALongPeeringMismatchList) {
  using internal::EvalClass;
  // Hundreds of undeclared-peer items, then a rule whose peering matched
  // but whose filter did not: its items lead, the old ones follow once.
  std::vector<RuleStep> steps(3);
  for (Asn a = 1; a <= 300; ++a) steps[0].peer_misses.push_back(a);
  steps[0].peer_misses.push_back(7);  // a duplicate inside one list
  steps[0].fast_reject = true;
  steps[1].outcome = {EvalClass::kNoMatchPeering,
                      {{Reason::kMatchRemoteAsSet, 0, "AS-X"},
                       {Reason::kMatchRemoteAsNum, 150, {}}}};
  steps[2].outcome = {EvalClass::kNoMatchFilter,
                      {{Reason::kMatchFilterAsSet, 0, "AS-X"},
                       {Reason::kMatchRemoteAsNum, 42, {}},
                       {Reason::kMatchFilterAsSet, 0, "AS-X"},
                       {Reason::kMatchFilter, 0, {}}}};
  expect_same_fold(steps, "overtake");

  internal::RuleMerge merge;
  for (const RuleStep& step : steps) {
    if (step.fast_reject) {
      merge.add(EvalClass::kNoMatchPeering, peer_miss_items(step.peer_misses));
    } else {
      merge.add(step.outcome);
    }
  }
  ASSERT_EQ(merge.cls(), EvalClass::kNoMatchFilter);
  const auto items = merge.items();
  // The newcomer verbatim, then 1..300 without its 42, then AS-X once.
  ASSERT_EQ(items.size(), 4u + 299u + 1u);
  EXPECT_EQ(items[0], (ReportItem{Reason::kMatchFilterAsSet, 0, "AS-X"}));
  EXPECT_EQ(items[2], items[0]);  // kept verbatim, duplicate included
  EXPECT_EQ(items[4], (ReportItem{Reason::kMatchRemoteAsNum, 1, {}}));
  EXPECT_EQ(items.back(), (ReportItem{Reason::kMatchRemoteAsSet, 0, "AS-X"}));
}

TEST(RuleMerge, NestedMergesKeepTheirOwnItems) {
  using internal::EvalClass;
  internal::RuleMerge outer;
  outer.add(EvalClass::kNoMatchPeering, peer_miss_items({1, 2, 3}));
  {
    internal::RuleMerge inner;
    inner.add(EvalClass::kNoMatchFilter,
              std::vector<ReportItem>{{Reason::kMatchFilter, 0, {}}});
    outer.add(inner.take());
  }
  outer.add(EvalClass::kNoMatchPeering, peer_miss_items({3, 4}));
  const std::vector<ReportItem> want = {{Reason::kMatchFilter, 0, {}},
                                        {Reason::kMatchRemoteAsNum, 1, {}},
                                        {Reason::kMatchRemoteAsNum, 2, {}},
                                        {Reason::kMatchRemoteAsNum, 3, {}},
                                        {Reason::kMatchRemoteAsNum, 4, {}}};
  EXPECT_EQ(outer.cls(), EvalClass::kNoMatchFilter);
  EXPECT_EQ(outer.take().items, want);
}

// One covering rule of the snapshot loop for a random property test. A
// simple rule has its plan entries (unique ASNs); when it names the peer,
// or is not simple, its outcome is evaluated in full.
struct PlannedRule {
  enum class Kind { kFastReject, kEvaluated, kUnplanned };
  Kind kind = Kind::kFastReject;
  std::array<bool, 2> covers{true, true};  // v4, v6
  bool no_factors = false;                 // a fast-rejected rule that adds nothing
  std::vector<Asn> asns;                   // kFastReject, kEvaluated
  internal::RuleOutcome outcome;           // kEvaluated, kUnplanned
};

// The plan of one family as RejectAllBuilder derives it: one link per ASN
// of every covering simple rule, in rule order, to the ASN's previous entry.
std::vector<std::uint32_t> plan_of(const std::vector<PlannedRule>& rules, std::size_t f) {
  std::vector<std::uint32_t> plan;
  std::map<Asn, std::uint32_t> last;
  for (const PlannedRule& rule : rules) {
    if (!rule.covers[f] || rule.kind == PlannedRule::Kind::kUnplanned) continue;
    for (Asn asn : rule.asns) {
      const auto it = last.find(asn);
      plan.push_back(it == last.end() ? compile::RejectAll::kNoPrev : it->second);
      last[asn] = static_cast<std::uint32_t>(plan.size() - 1);
    }
  }
  return plan;
}

// Folds one family both ways, as the snapshot loop does (stopping at a
// match): through the plan, and rule by rule through add().
void expect_planned_fold(const std::vector<PlannedRule>& rules, std::size_t f,
                         const std::string& what) {
  using Kind = PlannedRule::Kind;
  const std::vector<std::uint32_t> plan = plan_of(rules, f);
  internal::RuleMerge want;
  for (const PlannedRule& rule : rules) {
    if (!rule.covers[f]) continue;
    if (rule.kind == Kind::kFastReject) {
      if (!rule.no_factors) want.add(internal::EvalClass::kNoMatchPeering,
                                     peer_miss_items(rule.asns));
    } else {
      want.add(rule.outcome);
    }
    if (want.cls() == internal::EvalClass::kMatch) break;
  }
  internal::RuleMerge got;
  std::size_t planned = 0;
  for (const PlannedRule& rule : rules) {
    if (!rule.covers[f]) continue;
    if (rule.kind != Kind::kUnplanned) {
      const std::size_t begin = planned;
      planned += rule.asns.size();
      if (rule.kind == Kind::kFastReject) {
        if (!rule.no_factors) got.add_planned_misses(rule.asns, plan, begin);
        continue;
      }
      got.skip_planned(begin, planned);
    }
    got.add(rule.outcome);
    if (got.cls() == internal::EvalClass::kMatch) break;
  }
  ASSERT_EQ(got.cls(), want.cls()) << what;
  const std::span<const ReportItem> g = got.items();
  const std::span<const ReportItem> w = want.items();
  EXPECT_EQ(std::vector<ReportItem>(g.begin(), g.end()),
            std::vector<ReportItem>(w.begin(), w.end()))
      << what;
}

TEST(RuleMerge, PlannedFoldMatchesThePerRuleFold) {
  using internal::EvalClass;
  using Kind = PlannedRule::Kind;
  const std::vector<Reason> reasons = {Reason::kMatchRemoteAsNum, Reason::kMatchRemoteAsSet,
                                       Reason::kMatchFilterAsNum, Reason::kMatchFilter,
                                       Reason::kUnrecordedAsSet, Reason::kSkipCommunityFilter};
  std::mt19937 rng(20261019);
  auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  // A mismatch class most of the time, so the fold keeps accumulating;
  // Skip, Unrecorded and NotApplicable now and then, and rarely a match,
  // which ends the loop.
  auto outcome_class = [&] {
    const std::size_t r = pick(40);
    if (r < 16) return EvalClass::kNoMatchFilter;
    if (r < 30) return EvalClass::kNoMatchPeering;
    if (r < 33) return EvalClass::kSkip;
    if (r < 36) return EvalClass::kUnrecorded;
    if (r < 39) return EvalClass::kNotApplicable;
    return EvalClass::kMatch;
  };
  std::size_t evaluated_misses = 0;
  std::size_t long_lists = 0;
  std::size_t many_evaluated = 0;  // trials with over 8 evaluated simple rules
  for (int trial = 0; trial < 4000; ++trial) {
    // Small ASN pools, so an ASN recurs across fast-rejected and evaluated
    // rules; sometimes many evaluated rules, sometimes long rules.
    const Asn asn_pool = pick(2) == 0 ? 6 : 40;
    const std::size_t evaluated_share = pick(3) == 0 ? 2 : 6;
    std::vector<PlannedRule> rules(1 + pick(40));
    for (PlannedRule& rule : rules) {
      if (pick(8) == 0) rule.covers[pick(2)] = false;
      const std::size_t k = pick(evaluated_share + 4);
      rule.kind = k < 4 ? Kind::kFastReject : k < 4 + evaluated_share - 1 ? Kind::kEvaluated
                                                                          : Kind::kUnplanned;
      if (rule.kind == Kind::kFastReject && pick(10) == 0) {
        rule.no_factors = true;
        continue;
      }
      if (rule.kind != Kind::kUnplanned) {
        const std::size_t length = pick(6) == 0 ? pick(30) : pick(4);
        for (std::size_t i = 0; i < length; ++i) {
          const Asn asn = 1 + static_cast<Asn>(pick(asn_pool));
          if (std::find(rule.asns.begin(), rule.asns.end(), asn) == rule.asns.end()) {
            rule.asns.push_back(asn);
          }
        }
        long_lists += rule.asns.size() > 16;
      }
      if (rule.kind == Kind::kFastReject) continue;
      rule.outcome.cls = outcome_class();
      const std::size_t items = pick(5);
      for (std::size_t i = 0; i < items; ++i) {
        const Reason reason = reasons[pick(reasons.size())];
        // An evaluated rule's peer misses: often its own entries, as an
        // evaluated simple rule's peerings that miss yield.
        Asn asn = 1 + static_cast<Asn>(pick(asn_pool));
        if (!rule.asns.empty() && pick(2) == 0) asn = rule.asns[pick(rule.asns.size())];
        const bool named = reason != Reason::kMatchRemoteAsNum || pick(4) == 0;
        rule.outcome.items.push_back({reason, asn, named ? ItemName("AS-N") : ItemName()});
        evaluated_misses += !named;
      }
    }
    many_evaluated += std::count_if(rules.begin(), rules.end(), [](const PlannedRule& rule) {
                        return rule.kind == Kind::kEvaluated;
                      }) > 8;
    for (std::size_t f = 0; f < 2; ++f) {
      expect_planned_fold(rules, f, "trial " + std::to_string(trial) + " family " +
                                        std::to_string(f));
    }
    if (HasFailure()) break;
  }
  EXPECT_GT(evaluated_misses, 1000u);
  EXPECT_GT(long_lists, 100u);
  EXPECT_GT(many_evaluated, 100u);
}

TEST(Verifier, ItemNamesOutliveTheirSourcesAndInternOnce) {
  const Route r = route("8.8.8.0/24", {2, 1});
  auto render = [](const std::vector<HopCheck>& hops) {
    std::string out;
    for (const HopCheck& hop : hops) out += to_report_lines(hop);
    return out;
  };
  for (bool on_snapshot : {true, false}) {
    std::vector<HopCheck> hops;
    std::string before;
    {
      util::Diagnostics diag;
      auto w = std::make_unique<World>(
          "aut-num: AS1\nexport: to AS2 announce AS-GONE\n\n"
          "aut-num: AS2\nimport: from AS1 accept ANY\n",
          "", diag);
      std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot;
      std::unique_ptr<Verifier> v;
      if (on_snapshot) {
        snapshot = compile::CompiledPolicySnapshot::build(
            std::shared_ptr<const irr::Index>(std::shared_ptr<void>(), &w->index),
            std::shared_ptr<const relations::AsRelations>(std::shared_ptr<void>(),
                                                          &w->relations));
        v = std::make_unique<Verifier>(snapshot);
      } else {
        v = std::make_unique<Verifier>(w->index, w->relations);
      }
      hops = v->verify_route(r);
      before = render(hops);
      const std::uint32_t symbols = util::global_symbols().size();
      EXPECT_EQ(render(v->verify_route(r)), before);
      EXPECT_EQ(util::global_symbols().size(), symbols) << "a re-check interned a name";
      v.reset();
      snapshot.reset();
      w.reset();  // the Index and the IR
    }
    EXPECT_NE(before.find("UnrecordedAsSet(\"AS-GONE\")"), std::string::npos) << before;
    EXPECT_EQ(render(hops), before) << (on_snapshot ? "snapshot" : "interpreted");
  }
}

TEST(Verifier, RejectAllItemsOutliveTheirSources) {
  // AS2 names ten peers, none of them AS3, so the import from AS3 is
  // answered from AS2's precomputed reject-all entry; AS2 provides transit
  // to AS3, so the check is safelisted as uphill. The result owns its
  // items: it renders the same once the verifier, the snapshot and the
  // index are gone.
  std::string rpsl = "aut-num: AS2\n";
  for (int peer = 1000; peer < 1010; ++peer) {
    rpsl += "import: from AS" + std::to_string(peer) + " accept ANY\n";
  }
  const Route r = route("8.8.8.0/24", {2, 3});
  std::vector<HopCheck> hops;
  std::string before;
  {
    util::Diagnostics diag;
    auto w = std::make_unique<World>(rpsl, "2|3|-1\n", diag);
    auto snapshot = compile::CompiledPolicySnapshot::build(
        std::shared_ptr<const irr::Index>(std::shared_ptr<void>(), &w->index),
        std::shared_ptr<const relations::AsRelations>(std::shared_ptr<void>(), &w->relations));
    auto v = std::make_unique<Verifier>(snapshot);
    hops = v->verify_route(r);
    ASSERT_EQ(hops.size(), 1u);
    before = to_report_lines(hops[0]);
    v.reset();
    snapshot.reset();
    w.reset();
  }
  const CheckResult& imp = hops[0].import_result;
  EXPECT_EQ(imp.status, Status::kSafelisted);
  ASSERT_EQ(imp.items.size(), 11u);
  EXPECT_EQ(imp.items[0], (ReportItem{Reason::kMatchRemoteAsNum, 1000, {}}));
  EXPECT_EQ(imp.items[9], (ReportItem{Reason::kMatchRemoteAsNum, 1009, {}}));
  EXPECT_EQ(imp.items.back(), (ReportItem{Reason::kSpecUphill, 0, {}}));
  EXPECT_EQ(to_report_lines(hops[0]), before);
  EXPECT_NE(before.find("MehImport { from: 3, to: 2, items: [MatchRemoteAsNum(1000), "),
            std::string::npos)
      << before;
  EXPECT_NE(before.find("MatchRemoteAsNum(1009), SpecUphill] }"), std::string::npos) << before;
}

// Random item lists that stress the encoding: runs of unnamed
// MatchRemoteAsNum of every length, named MatchRemoteAsNum items (which
// must not join a run), and other reasons with and without ASN and name.
std::vector<ReportItem> random_items(std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<ReportItem> items;
  const std::size_t length = pick(4) == 0 ? pick(3) : pick(5) == 0 ? 40 + pick(120) : pick(12);
  static const char* const kNames[] = {"AS-X", "AS1299:AS-TRANSIT", "RS-ONE"};
  while (items.size() < length) {
    switch (pick(6)) {
      case 0:
      case 1:
      case 2:
        for (std::size_t run = 1 + pick(6); run > 0 && items.size() < length; --run) {
          items.push_back({Reason::kMatchRemoteAsNum, static_cast<Asn>(pick(5000)), {}});
        }
        break;
      case 3:
        items.push_back({Reason::kMatchRemoteAsNum, static_cast<Asn>(pick(5000)),
                         kNames[pick(3)]});
        break;
      default: {
        const auto reason = static_cast<Reason>(pick(static_cast<std::size_t>(
            Reason::kSkipUnparsedFilter) + 1));
        const Asn asn = pick(2) == 0 ? 0 : static_cast<Asn>(pick(5000));
        items.push_back({reason, asn, pick(2) == 0 ? ItemName() : ItemName(kNames[pick(3)])});
        break;
      }
    }
  }
  return items;
}

void expect_same_items(const ReportItems& got, const std::vector<ReportItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.empty(), want.empty());
  std::vector<ReportItem> walked;
  for (const ReportItem& item : got) walked.push_back(item);
  EXPECT_EQ(walked, want);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << "at " << i;
  if (!want.empty()) {
    EXPECT_EQ(got.back(), want.back());
  }
}

TEST(ReportItems, RoundTripsAgainstAVector) {
  std::mt19937_64 rng(19);
  expect_same_items(ReportItems(), {});
  expect_same_items(ReportItems{{Reason::kUnrecordedAutNum, 7, {}}},
                    {{Reason::kUnrecordedAutNum, 7, {}}});
  for (int n = 0; n < 2000; ++n) {
    const std::vector<ReportItem> want = random_items(rng);
    const ReportItems seq(want);
    expect_same_items(seq, want);

    // Split anywhere into head and tail: the same encoding as in bulk.
    const std::size_t cut = want.empty() ? 0 : rng() % (want.size() + 1);
    const ReportItems split(std::span<const ReportItem>(want).first(cut),
                            std::span<const ReportItem>(want).subspan(cut));
    EXPECT_EQ(split, seq);
    expect_same_items(split, want);

    // Copies and moves keep the items; a moved-from sequence is empty.
    ReportItems copy = seq;
    EXPECT_EQ(copy, seq);
    ReportItems moved = std::move(copy);
    EXPECT_EQ(moved, seq);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    copy = moved;
    expect_same_items(copy, want);
    moved = ReportItems();
    EXPECT_TRUE(moved.empty());
    EXPECT_EQ(moved.begin(), moved.end());
  }
}

TEST(ReportItems, PushBackMatchesBulkAndEqualityIsElementwise) {
  std::mt19937_64 rng(23);
  for (int n = 0; n < 1000; ++n) {
    const std::vector<ReportItem> a = random_items(rng);
    ReportItems built;
    for (const ReportItem& item : a) built.push_back(item);
    EXPECT_EQ(built, ReportItems(a));
    expect_same_items(built, a);

    // Against an unrelated list, a list one item longer, and a list with
    // one item changed (a run member named, an ASN moved, a reason swapped).
    std::vector<ReportItem> b = random_items(rng);
    EXPECT_EQ(ReportItems(a) == ReportItems(b), a == b);
    b = a;
    b.push_back({Reason::kMatchRemoteAsNum, 1, {}});
    EXPECT_FALSE(ReportItems(a) == ReportItems(b));
    if (a.empty()) continue;
    b = a;
    ReportItem& changed = b[rng() % b.size()];
    switch (rng() % 3) {
      case 0:
        changed.name = changed.name.empty() ? ItemName("AS-X") : ItemName();
        break;
      case 1:
        changed.asn += 1;
        break;
      default:
        changed.reason = changed.reason == Reason::kMatchRemoteAsNum
                             ? Reason::kMatchRemoteAsSet
                             : Reason::kMatchRemoteAsNum;
        break;
    }
    EXPECT_FALSE(ReportItems(a) == ReportItems(b));
    EXPECT_EQ(ReportItems(b), ReportItems(b));
  }
}

// A non-empty list of unnamed MatchRemoteAsNum only: one maximal run.
bool is_one_run(const std::vector<ReportItem>& items) {
  return !items.empty() && std::all_of(items.begin(), items.end(), [](const ReportItem& item) {
    return item.reason == Reason::kMatchRemoteAsNum && item.name.empty();
  });
}

TEST(ReportItems, RunConstructorAndVisitorMatchTheVectorConstructor) {
  std::mt19937_64 rng(29);
  const std::vector<std::optional<ReportItem>> tails = {
      std::nullopt,
      ReportItem{Reason::kSpecUphill, 0, {}},
      ReportItem{Reason::kMatchRemoteAsNum, 77, {}},      // joins the run
      ReportItem{Reason::kMatchRemoteAsNum, 77, "AS-X"},  // named: its own record
  };
  for (int n = 0; n < 2000; ++n) {
    const std::size_t length = rng() % 4 == 0 ? rng() % 200 : rng() % 6;
    std::vector<Asn> run;
    for (std::size_t i = 0; i < length; ++i) run.push_back(static_cast<Asn>(rng() % 100000));
    const std::optional<ReportItem>& tail = tails[rng() % tails.size()];
    std::vector<ReportItem> want = peer_miss_items(run);
    if (tail) want.push_back(*tail);
    const ReportItems got(run, tail);
    EXPECT_EQ(got, ReportItems(want));
    expect_same_items(got, want);
    EXPECT_EQ(got.single_run(), is_one_run(want));
  }
  // The visitor rebuilds every item, and its runs are maximal and non-empty.
  for (int n = 0; n < 2000; ++n) {
    const std::vector<ReportItem> want = random_items(rng);
    std::vector<ReportItem> visited;
    bool last_was_run = false;
    const ReportItems items(want);
    EXPECT_EQ(items.single_run(), is_one_run(want));
    items.visit(
        [&](std::span<const Asn> asns) {
          EXPECT_FALSE(asns.empty());
          EXPECT_FALSE(last_was_run);
          last_was_run = true;
          for (Asn asn : asns) visited.push_back({Reason::kMatchRemoteAsNum, asn, {}});
        },
        [&](const ReportItem& item) {
          EXPECT_FALSE(item.reason == Reason::kMatchRemoteAsNum && item.name.empty());
          last_was_run = false;
          visited.push_back(item);
        });
    EXPECT_EQ(visited, want);
  }
}

}  // namespace
}  // namespace rpslyzer::verify
