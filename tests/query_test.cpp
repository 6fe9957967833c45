#include "rpslyzer/query/query.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "rpslyzer/irr/loader.hpp"

namespace rpslyzer::query {
namespace {

struct Fixture {
  util::Diagnostics diag;
  ir::Ir ir;
  irr::Index index;
  relations::AsRelations relations;
  std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot;
  QueryEngine engine;

  Fixture()
      : ir(irr::parse_dump(
            "aut-num: AS64500\n"
            "import: from AS64501 accept ANY\n"
            "export: to AS64501 announce AS-CONE\n\n"
            "as-set: AS-CONE\nmembers: AS64500, AS-SUB\n\n"
            "as-set: AS-SUB\nmembers: AS64502\n\n"
            "as-set: AS-EMPTY\n\n"
            "route-set: RS-NETS\nmembers: 192.0.2.0/24^+, AS64500^24\n\n"
            "route: 10.0.0.0/8\norigin: AS64500\n\n"
            "route: 10.64.0.0/16\norigin: AS64500\n\n"
            "route6: 2001:db8::/32\norigin: AS64500\n\n"
            "route: 198.51.100.0/24\norigin: AS64502\n",
            "TEST", diag)),
        index(ir),
        // The fixture is never destroyed, so the snapshot may alias it.
        snapshot(compile::CompiledPolicySnapshot::build(
            std::shared_ptr<const irr::Index>(std::shared_ptr<void>(), &index),
            std::shared_ptr<const relations::AsRelations>(std::shared_ptr<void>(),
                                                          &relations))),
        engine(*snapshot) {}
};

Fixture& fx() {
  static Fixture f;
  return f;
}

TEST(QueryEngine, FramingRules) {
  EXPECT_EQ(frame_response(""), "C\n");
  EXPECT_EQ(frame_response("abc"), "A4\nabc\nC\n");   // length counts the newline
  EXPECT_EQ(frame_response("abc\n"), "A4\nabc\nC\n");
}

TEST(QueryEngine, OriginV4) {
  EXPECT_EQ(fx().engine.evaluate("!gAS64500"), "A24\n10.0.0.0/8 10.64.0.0/16\nC\n");
  // The leading '!' is optional.
  EXPECT_EQ(fx().engine.evaluate("gAS64500"), fx().engine.evaluate("!gAS64500"));
}

TEST(QueryEngine, OriginV6) {
  EXPECT_EQ(fx().engine.evaluate("!6AS64500"), "A14\n2001:db8::/32\nC\n");
  // AS with routes but none in the family: success without data.
  EXPECT_EQ(fx().engine.evaluate("!6AS64502"), "C\n");
}

TEST(QueryEngine, OriginUnknownAs) {
  EXPECT_EQ(fx().engine.evaluate("!gAS99"), "D\n");
  EXPECT_EQ(fx().engine.evaluate("!gBOGUS")[0], 'F');
}

TEST(QueryEngine, SetMembersDirect) {
  EXPECT_EQ(fx().engine.evaluate("!iAS-CONE"), "A15\nAS64500 AS-SUB\nC\n");
}

TEST(QueryEngine, SetMembersRecursive) {
  EXPECT_EQ(fx().engine.evaluate("!iAS-CONE,1"), "A16\nAS64500 AS64502\nC\n");
}

TEST(QueryEngine, RouteSetMembers) {
  EXPECT_EQ(fx().engine.evaluate("!iRS-NETS"), "A26\n192.0.2.0/24^+ AS64500^24\nC\n");
}

TEST(QueryEngine, SetPrefixes) {
  // !a resolves every member's route objects, both families.
  std::string response = fx().engine.evaluate("!aAS-CONE");
  EXPECT_NE(response.find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(response.find("198.51.100.0/24"), std::string::npos);
  EXPECT_NE(response.find("2001:db8::/32"), std::string::npos);

  std::string v4_only = fx().engine.evaluate("!a4AS-CONE");
  EXPECT_NE(v4_only.find("10.0.0.0/8"), std::string::npos);
  EXPECT_EQ(v4_only.find("2001:db8::/32"), std::string::npos);

  std::string v6_only = fx().engine.evaluate("!a6AS-CONE");
  EXPECT_EQ(v6_only.find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(v6_only.find("2001:db8::/32"), std::string::npos);
}

TEST(QueryEngine, SetPrefixesForBareAsn) {
  EXPECT_EQ(fx().engine.evaluate("!aAS64502"), "A16\n198.51.100.0/24\nC\n");
}

TEST(QueryEngine, AutNumSummary) {
  EXPECT_EQ(fx().engine.evaluate("!oAS64500"),
            "A48\naut-num AS64500 source TEST imports 1 exports 1\nC\n");
  EXPECT_EQ(fx().engine.evaluate("!oAS1"), "D\n");
}

TEST(QueryEngine, Errors) {
  EXPECT_EQ(fx().engine.evaluate("")[0], 'F');
  EXPECT_EQ(fx().engine.evaluate("!z123")[0], 'F');
  EXPECT_EQ(fx().engine.evaluate("!iAS-NOPE"), "D\n");
}

// The daemon (src/server) forwards query lines verbatim and relies on these
// framings being exact; every wire-visible shape is pinned here.
TEST(QueryEngine, FramingSuccessWithoutData) {
  // A defined set with zero members answers success-without-data, not D.
  EXPECT_EQ(fx().engine.evaluate("!iAS-EMPTY"), "C\n");
  // An AS with route objects but none in the requested family likewise.
  EXPECT_EQ(fx().engine.evaluate("!6AS64502"), "C\n");
  EXPECT_EQ(fx().engine.evaluate("!a6AS64502"), "C\n");
}

TEST(QueryEngine, FramingUnknownKey) {
  EXPECT_EQ(fx().engine.evaluate("!gAS4200000000"), "D\n");
  EXPECT_EQ(fx().engine.evaluate("!6AS4200000000"), "D\n");
  EXPECT_EQ(fx().engine.evaluate("!aAS-UNKNOWN"), "D\n");
  EXPECT_EQ(fx().engine.evaluate("!iRS-UNKNOWN"), "D\n");
  EXPECT_EQ(fx().engine.evaluate("!oAS4200000000"), "D\n");
}

TEST(QueryEngine, FramingMalformed) {
  EXPECT_EQ(fx().engine.evaluate("!g"), "F expected an AS number\n");
  EXPECT_EQ(fx().engine.evaluate("!gNOTANAS"), "F expected an AS number\n");
  EXPECT_EQ(fx().engine.evaluate("!oBOGUS"), "F expected an AS number\n");
  EXPECT_EQ(fx().engine.evaluate("!"), "F empty query\n");
  EXPECT_EQ(fx().engine.evaluate("   "), "F empty query\n");
  EXPECT_EQ(fx().engine.evaluate("!zUNSUPPORTED"), "F unsupported query\n");
}

TEST(QueryEngine, A6FamilyRestriction) {
  // !a6 over a set whose members have v4-only route objects: C, not D.
  EXPECT_EQ(fx().engine.evaluate("!a6AS-SUB"), "C\n");
  EXPECT_EQ(fx().engine.evaluate("!a6AS-CONE"), "A14\n2001:db8::/32\nC\n");
  EXPECT_EQ(fx().engine.evaluate("!a4AS64502"), "A16\n198.51.100.0/24\nC\n");
}

TEST(QueryEngine, LeadingBangOptionalEverywhere) {
  for (const char* query : {"gAS64500", "6AS64500", "iAS-CONE,1", "aAS-CONE",
                            "oAS64500", "zUNSUPPORTED"}) {
    EXPECT_EQ(fx().engine.evaluate(query),
              fx().engine.evaluate("!" + std::string(query)))
        << query;
  }
}

TEST(QueryEngine, CaseInsensitiveNames) {
  EXPECT_EQ(fx().engine.evaluate("!ias-cone"), fx().engine.evaluate("!iAS-CONE"));
  EXPECT_EQ(fx().engine.evaluate("!gas64500"), fx().engine.evaluate("!gAS64500"));
}

}  // namespace
}  // namespace rpslyzer::query
