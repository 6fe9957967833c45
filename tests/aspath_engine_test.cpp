#include "rpslyzer/aspath/engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "rpslyzer/rpsl/expr_parser.hpp"
#include "symbolic.hpp"

namespace rpslyzer::aspath {
namespace {

using ir::AsPathRegex;

/// Membership backed by a literal map for tests.
class MapMembership : public AsSetMembership {
 public:
  MapMembership(std::map<std::string, std::set<Asn>> sets) : sets_(std::move(sets)) {}

  bool contains(std::string_view as_set, Asn asn) const override {
    auto it = sets_.find(std::string(as_set));
    return it != sets_.end() && it->second.contains(asn);
  }
  bool is_known(std::string_view as_set) const override {
    return sets_.contains(std::string(as_set));
  }

 private:
  std::map<std::string, std::set<Asn>> sets_;
};

AsPathRegex regex(std::string_view text) {
  util::Diagnostics diag;
  rpsl::ParseContext ctx{&diag, "test", "TEST", 1};
  auto parsed = rpsl::parse_aspath_regex(text, ctx);
  EXPECT_TRUE(parsed) << text;
  EXPECT_TRUE(diag.empty()) << text;
  return std::move(*parsed);
}

const MapMembership kMembership({
    {"AS-FOO", {64500, 64501}},
    {"AS-BAR", {64502}},
});

RegexMatch all_engines(std::string_view regex_text, std::vector<Asn> path, Asn peer = 0) {
  AsPathRegex re = regex(regex_text);
  MatchEnv env{path, peer, &kMembership};
  RegexMatch nfa = match_nfa(re, env);
  RegexMatch bt = match_backtrack(re, env);
  RegexMatch sym = match_symbolic(re, env);
  // The three engines must agree whenever each supports the construct.
  if (nfa != RegexMatch::kUnsupported) {
    EXPECT_EQ(nfa, bt) << regex_text;
  }
  if (sym != RegexMatch::kUnsupported && nfa != RegexMatch::kUnsupported) {
    EXPECT_EQ(nfa, sym) << regex_text;
  }
  return bt;
}

TEST(AsPathEngine, SingleAsnSearch) {
  EXPECT_EQ(all_engines("AS64500", {64500}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("AS64500", {1, 64500, 2}), RegexMatch::kMatch);  // substring
  EXPECT_EQ(all_engines("AS64500", {64501}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("AS64500", {}), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, Anchors) {
  // The paper's example: received from AS13911, originated by AS6327.
  EXPECT_EQ(all_engines("^AS13911 AS6327+$", {13911, 6327}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS13911 AS6327+$", {13911, 6327, 6327}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS13911 AS6327+$", {13911, 1, 6327}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^AS13911 AS6327+$", {1, 13911, 6327}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^AS13911 AS6327+$", {13911}), RegexMatch::kNoMatch);
  // End anchor alone.
  EXPECT_EQ(all_engines("AS6327$", {1, 6327}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("AS6327$", {6327, 1}), RegexMatch::kNoMatch);
  // Begin anchor alone.
  EXPECT_EQ(all_engines("^AS1", {1, 2}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS1", {2, 1}), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, EmptyRegexMatchesEverything) {
  EXPECT_EQ(all_engines("", {}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("", {1, 2, 3}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^$", {}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^$", {1}), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, Wildcard) {
  EXPECT_EQ(all_engines("^. AS2$", {7, 2}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^. AS2$", {2}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^.* AS2$", {1, 5, 9, 2}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^.+ AS2$", {2}), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, Alternation) {
  EXPECT_EQ(all_engines("^(AS1|AS2)$", {1}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^(AS1|AS2)$", {2}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^(AS1|AS2)$", {3}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^(AS1 AS2|AS3)$", {1, 2}), RegexMatch::kMatch);
}

TEST(AsPathEngine, RepetitionCounts) {
  EXPECT_EQ(all_engines("^AS1{2}$", {1, 1}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS1{2}$", {1}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^AS1{2}$", {1, 1, 1}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^AS1{1,2}$", {1, 1}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS1{1,2}$", {1, 1, 1}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^AS1{2,}$", {1, 1, 1}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS1{2,}$", {1}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^AS1?$", {}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS1?$", {1}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS1?$", {1, 1}), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, AsSetTokens) {
  EXPECT_EQ(all_engines("^AS-FOO+$", {64500, 64501}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^AS-FOO+$", {64500, 64502}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^AS-FOO AS-BAR$", {64501, 64502}), RegexMatch::kMatch);
  // Unknown sets are empty for matching purposes.
  EXPECT_EQ(all_engines("^AS-UNKNOWN$", {64500}), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, PeerAs) {
  EXPECT_EQ(all_engines("^PeerAS+$", {9, 9}, 9), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^PeerAS+$", {9, 8}, 9), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^PeerAS+$", {9}, 8), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, CharacterClassSets) {
  EXPECT_EQ(all_engines("^[AS1 AS3]$", {1}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^[AS1 AS3]$", {3}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^[AS1 AS3]$", {2}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^[AS-FOO]$", {64501}), RegexMatch::kMatch);
  // Complemented set.
  EXPECT_EQ(all_engines("^[^AS1 AS2]$", {3}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^[^AS1 AS2]$", {1}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^[^AS-FOO]+$", {1, 2}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^[^AS-FOO]+$", {1, 64500}), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, AsnRangesInSets) {
  // ASN ranges: the paper's tool skips them; ours evaluates them (the
  // verifier decides whether to mirror the skip).
  EXPECT_EQ(all_engines("^[AS64512-AS65535]+$", {64512, 65000}), RegexMatch::kMatch);
  EXPECT_EQ(all_engines("^[AS64512-AS65535]+$", {64000}), RegexMatch::kNoMatch);
  EXPECT_EQ(all_engines("^[^AS64512-AS65535]$", {64000}), RegexMatch::kMatch);
}

TEST(AsPathEngine, SamePatternOperators) {
  AsPathRegex re = regex("AS-FOO~+");
  // NFA and symbolic engines refuse; backtracking evaluates.
  std::vector<Asn> same{64500, 64500};
  MatchEnv env{same, 0, &kMembership};
  EXPECT_EQ(match_nfa(re, env), RegexMatch::kUnsupported);
  EXPECT_EQ(match_symbolic(re, env), RegexMatch::kUnsupported);
  EXPECT_EQ(match_backtrack(re, env), RegexMatch::kMatch);

  // All repeated ASes must be identical.
  std::vector<Asn> mixed{64500, 64501};
  MatchEnv env_mixed{mixed, 0, &kMembership};
  EXPECT_EQ(match_backtrack(regex("^AS-FOO~+$"), env_mixed), RegexMatch::kNoMatch);
  std::vector<Asn> both_same{64501, 64501};
  MatchEnv env_same{both_same, 0, &kMembership};
  EXPECT_EQ(match_backtrack(regex("^AS-FOO~+$"), env_same), RegexMatch::kMatch);
  // ~* allows the empty sequence.
  std::vector<Asn> empty;
  MatchEnv env_empty{empty, 0, &kMembership};
  EXPECT_EQ(match_backtrack(regex("^AS-FOO~*$"), env_empty), RegexMatch::kMatch);
}

TEST(AsPathEngine, PrivateAsnFilterShape) {
  // The typical in-the-wild use: drop paths containing private ASNs.
  AsPathRegex re = regex("^[^AS64512-AS65535]*$");
  std::vector<Asn> clean{3257, 1299, 6939};
  std::vector<Asn> leaky{3257, 64512, 6939};
  MatchEnv env_clean{clean, 0, nullptr};
  MatchEnv env_leaky{leaky, 0, nullptr};
  EXPECT_EQ(match_nfa(re, env_clean), RegexMatch::kMatch);
  EXPECT_EQ(match_nfa(re, env_leaky), RegexMatch::kNoMatch);
}

TEST(AsPathEngine, HugeRepeatIsUnsupported) {
  AsPathRegex re = regex("AS1{1000}");
  std::vector<Asn> path{1};
  MatchEnv env{path, 0, nullptr};
  EXPECT_EQ(match_nfa(re, env), RegexMatch::kUnsupported);
}

TEST(AsPathEngine, SymbolicBudgetExhaustion) {
  // Many tokens × long path exceeds the symbol-string budget.
  AsPathRegex re = regex("(. . . . . . . . . .)+");
  std::vector<Asn> path(40, 7);
  MatchEnv env{path, 0, nullptr};
  EXPECT_EQ(match_symbolic(re, env, 1000), RegexMatch::kUnsupported);
  // The NFA engine handles it fine.
  EXPECT_EQ(match_nfa(re, env), RegexMatch::kMatch);
}

// Engine-equivalence sweep over a grid of regexes and paths (property-style).
class EngineEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineEquivalence, EnginesAgree) {
  AsPathRegex re = regex(GetParam());
  const std::vector<std::vector<Asn>> paths = {
      {},
      {1},
      {2},
      {64500},
      {1, 2},
      {2, 1},
      {1, 1},
      {1, 2, 3},
      {3, 2, 1},
      {64500, 64501, 64502},
      {1, 64500, 2},
      {9, 9, 9},
      {1, 2, 1, 2},
      {5, 4, 3, 2, 1},
  };
  for (const auto& path : paths) {
    MatchEnv env{path, 9, &kMembership};
    RegexMatch nfa = match_nfa(re, env);
    RegexMatch bt = match_backtrack(re, env);
    RegexMatch sym = match_symbolic(re, env);
    ASSERT_NE(bt, RegexMatch::kUnsupported);
    if (nfa != RegexMatch::kUnsupported) {
      EXPECT_EQ(nfa, bt) << GetParam() << " on path size " << path.size();
    }
    if (sym != RegexMatch::kUnsupported) {
      EXPECT_EQ(sym, bt) << GetParam() << " on path size " << path.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalence,
    ::testing::Values("AS1", "^AS1", "AS1$", "^AS1$", "AS1 AS2", "AS1|AS2", "^(AS1|AS2)+$",
                      ".", ".*", ".+", "^.*$", "AS1*", "AS1+", "AS1?", "^AS1{2}$",
                      "^AS1{1,3}$", "^AS1{2,}$", "[AS1 AS2]", "[^AS1 AS2]", "^[AS1 AS2]+$",
                      "^[^AS3]*$", "AS-FOO", "^AS-FOO+$", "[AS-FOO AS3]", "^[^AS-FOO]+$",
                      "PeerAS", "^PeerAS", "^(AS1 AS2)+$", "^(AS1|AS2|AS3){1,2}$",
                      "^.* AS1 .*$", "(AS1 AS2)|(AS2 AS1)", "^(. AS2)+$"));

}  // namespace
}  // namespace rpslyzer::aspath
