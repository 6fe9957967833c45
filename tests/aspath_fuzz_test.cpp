// Randomized engine-equivalence fuzzing: generate random regex ASTs and
// random AS paths with a fixed seed; the NFA, backtracking, and symbolic
// engines must agree wherever each supports the construct. This
// complements the hand-picked grid in aspath_engine_test.cpp.

#include <random>

#include <gtest/gtest.h>

#include "rpslyzer/aspath/engine.hpp"
#include "symbolic.hpp"

namespace rpslyzer::aspath {
namespace {

using ir::AsPathRegex;
using ir::AsPathRegexNode;

class RegexGen {
 public:
  explicit RegexGen(std::uint32_t seed) : rng_(seed) {}

  AsPathRegex generate() {
    AsPathRegex out;
    *out.root = node(3);
    out.text = ir::to_string(*out.root);
    return out;
  }

  std::vector<Asn> path() {
    std::vector<Asn> p(size_t(pick(0, 6)));
    for (auto& asn : p) asn = small_asn();
    return p;
  }

 private:
  std::mt19937 rng_;

  std::size_t pick(std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng_);
  }
  Asn small_asn() { return static_cast<Asn>(pick(1, 5)); }

  ir::ReToken token() {
    ir::ReToken t;
    switch (pick(0, 3)) {
      case 0:
        t.kind = ir::ReToken::Kind::kAsn;
        t.asn = small_asn();
        break;
      case 1:
        t.kind = ir::ReToken::Kind::kAny;
        break;
      case 2:
        t.kind = ir::ReToken::Kind::kPeerAs;
        break;
      default: {
        t.kind = ir::ReToken::Kind::kSet;
        t.complemented = pick(0, 1) == 1;
        const std::size_t items = pick(1, 3);
        for (std::size_t i = 0; i < items; ++i) {
          ir::ReSetItem item;
          item.kind = ir::ReSetItem::Kind::kAsn;
          item.asn = small_asn();
          t.items.push_back(item);
        }
        break;
      }
    }
    return t;
  }

  AsPathRegexNode node(int depth) {
    if (depth <= 0) return AsPathRegexNode{ir::ReTokenNode{token()}};
    switch (pick(0, 6)) {
      case 0:
        return AsPathRegexNode{ir::ReTokenNode{token()}};
      case 1: {
        ir::ReConcat c;
        const std::size_t parts = pick(1, 3);
        for (std::size_t i = 0; i < parts; ++i) c.parts.emplace_back(node(depth - 1));
        return AsPathRegexNode{std::move(c)};
      }
      case 2: {
        ir::ReAlt a;
        const std::size_t options = pick(2, 3);
        for (std::size_t i = 0; i < options; ++i) a.options.emplace_back(node(depth - 1));
        return AsPathRegexNode{std::move(a)};
      }
      case 3: {
        ir::ReRepeatNode r;
        *r.inner = node(depth - 1);
        switch (pick(0, 3)) {
          case 0:
            r.repeat = {0, std::nullopt, false};  // *
            break;
          case 1:
            r.repeat = {1, std::nullopt, false};  // +
            break;
          case 2:
            r.repeat = {0, 1, false};  // ?
            break;
          default:
            r.repeat = {static_cast<std::uint32_t>(pick(0, 2)),
                        static_cast<std::uint32_t>(pick(2, 4)), false};
        }
        return AsPathRegexNode{std::move(r)};
      }
      case 4:
        return AsPathRegexNode{ir::ReBeginAnchor{}};
      case 5:
        return AsPathRegexNode{ir::ReEndAnchor{}};
      default:
        return AsPathRegexNode{ir::ReTokenNode{token()}};
    }
  }
};

class FuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzSeeds, EnginesAgree) {
  RegexGen gen(GetParam());
  for (int round = 0; round < 60; ++round) {
    AsPathRegex regex = gen.generate();
    for (int p = 0; p < 8; ++p) {
      std::vector<Asn> path = gen.path();
      MatchEnv env{path, 2, nullptr};
      RegexMatch nfa = match_nfa(regex, env);
      RegexMatch bt = match_backtrack(regex, env);
      ASSERT_NE(bt, RegexMatch::kUnsupported) << regex.text;
      if (nfa != RegexMatch::kUnsupported) {
        ASSERT_EQ(nfa, bt) << "regex <" << regex.text << "> path size " << path.size();
      }
      RegexMatch sym = match_symbolic(regex, env, 1u << 14);
      if (sym != RegexMatch::kUnsupported) {
        ASSERT_EQ(sym, bt) << "regex <" << regex.text << "> (symbolic)";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace rpslyzer::aspath
