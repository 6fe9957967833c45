#include "rpslyzer/net/prefix.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "rpslyzer/net/martians.hpp"
#include "rpslyzer/net/prefix_set.hpp"
#include "rpslyzer/net/prefix_trie.hpp"

namespace rpslyzer::net {
namespace {

Prefix pfx(std::string_view text) {
  auto p = Prefix::parse(text);
  EXPECT_TRUE(p) << text;
  return *p;
}

TEST(Prefix, ParseAndNormalize) {
  EXPECT_EQ(pfx("192.0.2.129/25").to_string(), "192.0.2.128/25");  // host bits masked
  EXPECT_EQ(pfx("192.0.2.1").to_string(), "192.0.2.1/32");         // bare address
  EXPECT_EQ(pfx("2001:db8::/32").to_string(), "2001:db8::/32");
  EXPECT_EQ(pfx("::/0").to_string(), "::/0");
}

TEST(Prefix, ParseInvalid) {
  EXPECT_FALSE(Prefix::parse("192.0.2.0/33"));
  EXPECT_FALSE(Prefix::parse("2001:db8::/129"));
  EXPECT_FALSE(Prefix::parse("192.0.2.0/"));
  EXPECT_FALSE(Prefix::parse("192.0.2.0/-1"));
  EXPECT_FALSE(Prefix::parse("bogus/24"));
  EXPECT_FALSE(Prefix::parse(""));
}

TEST(Prefix, Covers) {
  EXPECT_TRUE(pfx("10.0.0.0/8").covers(pfx("10.1.0.0/16")));
  EXPECT_TRUE(pfx("10.0.0.0/8").covers(pfx("10.0.0.0/8")));
  EXPECT_FALSE(pfx("10.1.0.0/16").covers(pfx("10.0.0.0/8")));
  EXPECT_FALSE(pfx("10.0.0.0/8").covers(pfx("11.0.0.0/16")));
  EXPECT_FALSE(pfx("0.0.0.0/0").covers(pfx("::/0")));  // families differ
  EXPECT_TRUE(pfx("::/0").covers(pfx("2001:db8::/32")));
}

TEST(Prefix, ContainsAddress) {
  EXPECT_TRUE(pfx("192.0.2.0/24").contains(*IpAddress::parse("192.0.2.77")));
  EXPECT_FALSE(pfx("192.0.2.0/24").contains(*IpAddress::parse("192.0.3.77")));
}

TEST(RangeOp, Parse) {
  EXPECT_EQ(RangeOp::parse("-"), RangeOp::minus());
  EXPECT_EQ(RangeOp::parse("+"), RangeOp::plus());
  EXPECT_EQ(RangeOp::parse("24"), RangeOp::exact(24));
  EXPECT_EQ(RangeOp::parse("24-32"), RangeOp::range(24, 32));
  EXPECT_FALSE(RangeOp::parse("32-24"));  // inverted
  EXPECT_FALSE(RangeOp::parse(""));
  EXPECT_FALSE(RangeOp::parse("x"));
}

TEST(RangeOp, NoneMatchesExactOnly) {
  auto base = pfx("10.0.0.0/16");
  EXPECT_TRUE(matches(base, RangeOp::none(), pfx("10.0.0.0/16")));
  EXPECT_FALSE(matches(base, RangeOp::none(), pfx("10.0.0.0/17")));
  EXPECT_FALSE(matches(base, RangeOp::none(), pfx("10.0.0.0/15")));
}

TEST(RangeOp, MinusExcludesSelf) {
  auto base = pfx("10.0.0.0/16");
  EXPECT_FALSE(matches(base, RangeOp::minus(), pfx("10.0.0.0/16")));
  EXPECT_TRUE(matches(base, RangeOp::minus(), pfx("10.0.0.0/17")));
  EXPECT_TRUE(matches(base, RangeOp::minus(), pfx("10.0.1.1/32")));
  // A host prefix has no strict more-specifics.
  EXPECT_FALSE(matches(pfx("10.0.0.1/32"), RangeOp::minus(), pfx("10.0.0.1/32")));
}

TEST(RangeOp, PlusIncludesSelf) {
  auto base = pfx("10.0.0.0/16");
  EXPECT_TRUE(matches(base, RangeOp::plus(), pfx("10.0.0.0/16")));
  EXPECT_TRUE(matches(base, RangeOp::plus(), pfx("10.0.128.0/17")));
  EXPECT_FALSE(matches(base, RangeOp::plus(), pfx("10.0.0.0/15")));
  EXPECT_FALSE(matches(base, RangeOp::plus(), pfx("11.0.0.0/24")));
}

TEST(RangeOp, ExactLength) {
  auto base = pfx("10.0.0.0/16");
  EXPECT_TRUE(matches(base, RangeOp::exact(24), pfx("10.0.55.0/24")));
  EXPECT_FALSE(matches(base, RangeOp::exact(24), pfx("10.0.55.0/25")));
  // ^16 applied to a /16 selects the prefix itself (RFC 2622 example).
  EXPECT_TRUE(matches(base, RangeOp::exact(16), pfx("10.0.0.0/16")));
  // ^8 applied to a /16 selects nothing.
  EXPECT_FALSE(matches(base, RangeOp::exact(8), pfx("10.0.0.0/16")));
  EXPECT_FALSE(matches(base, RangeOp::exact(8), pfx("10.0.0.0/8")));
}

TEST(RangeOp, RangeClampsLowerBound) {
  auto base = pfx("10.0.0.0/16");
  // ^8-24 on a /16 behaves like ^16-24.
  EXPECT_TRUE(matches(base, RangeOp::range(8, 24), pfx("10.0.0.0/16")));
  EXPECT_TRUE(matches(base, RangeOp::range(8, 24), pfx("10.0.55.0/24")));
  EXPECT_FALSE(matches(base, RangeOp::range(8, 24), pfx("10.0.55.0/25")));
}

TEST(RangeOp, LengthIntervalEdgeCases) {
  EXPECT_EQ(length_interval(RangeOp::minus(), 32, Family::kIpv4), std::nullopt);
  EXPECT_EQ(length_interval(RangeOp::plus(), 128, Family::kIpv6),
            std::make_pair(std::uint8_t{128}, std::uint8_t{128}));
  // Upper bound clamps to the family maximum.
  EXPECT_EQ(length_interval(RangeOp::range(24, 200), 16, Family::kIpv4),
            std::make_pair(std::uint8_t{24}, std::uint8_t{32}));
}

TEST(RangeOp, Composition) {
  auto base = pfx("10.0.0.0/8");
  // {10/8^10-12}^14-16 == 10/8^14-16
  EXPECT_TRUE(matches_composed(base, RangeOp::range(10, 12), RangeOp::range(14, 16),
                               pfx("10.1.0.0/16")));
  EXPECT_FALSE(matches_composed(base, RangeOp::range(10, 12), RangeOp::range(14, 16),
                                pfx("10.64.0.0/12")));
  // {10/8^14-16}^10-12 is empty.
  EXPECT_EQ(composed_interval(RangeOp::range(14, 16), RangeOp::range(10, 12), 8, Family::kIpv4),
            std::nullopt);
  // ^+ on ^- stays exclusive of the base.
  EXPECT_FALSE(matches_composed(base, RangeOp::minus(), RangeOp::plus(), pfx("10.0.0.0/8")));
  EXPECT_TRUE(matches_composed(base, RangeOp::minus(), RangeOp::plus(), pfx("10.0.0.0/9")));
  // ^- on ^- requires two levels deeper.
  EXPECT_FALSE(matches_composed(base, RangeOp::minus(), RangeOp::minus(), pfx("10.0.0.0/9")));
  EXPECT_TRUE(matches_composed(base, RangeOp::minus(), RangeOp::minus(), pfx("10.0.0.0/10")));
  // Outer none keeps the inner interval.
  EXPECT_TRUE(matches_composed(base, RangeOp::plus(), RangeOp::none(), pfx("10.0.0.0/8")));
}

TEST(PrefixRange, Parse) {
  auto r = PrefixRange::parse("5.0.0.0/8^24-32");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->prefix.to_string(), "5.0.0.0/8");
  EXPECT_EQ(r->op, RangeOp::range(24, 32));
  EXPECT_TRUE(r->matches(pfx("5.5.5.0/24")));
  EXPECT_FALSE(r->matches(pfx("5.5.0.0/16")));

  EXPECT_FALSE(PrefixRange::parse("5.0.0.0/8^bogus"));
  EXPECT_FALSE(PrefixRange::parse("^24"));
  ASSERT_TRUE(PrefixRange::parse(" 10.0.0.0/8 "));  // whitespace tolerated
}

TEST(PrefixSet, Matching) {
  PrefixSet set;
  set.add(*PrefixRange::parse("10.0.0.0/8^+"));
  set.add(*PrefixRange::parse("2001:db8::/32"));
  EXPECT_TRUE(set.matches(pfx("10.2.3.0/24")));
  EXPECT_TRUE(set.matches(pfx("2001:db8::/32")));
  EXPECT_FALSE(set.matches(pfx("2001:db8::/48")));  // no op: exact only
  EXPECT_FALSE(set.matches(pfx("11.0.0.0/8")));
  EXPECT_EQ(set.to_string(), "{10.0.0.0/8^+, 2001:db8::/32}");
}

TEST(PrefixSet, MatchesWithOuterOp) {
  PrefixSet set;
  set.add(*PrefixRange::parse("10.0.0.0/8"));
  // {10.0.0.0/8}^24 — the non-standard set-level operator.
  EXPECT_TRUE(set.matches_with(RangeOp::exact(24), pfx("10.1.2.0/24")));
  EXPECT_FALSE(set.matches_with(RangeOp::exact(24), pfx("10.0.0.0/8")));
}

TEST(PrefixTrie, ExactAndLongestMatch) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  trie.insert(pfx("2001:db8::/32"), 6);

  EXPECT_EQ(*trie.exact(pfx("10.0.0.0/8")), 8);
  EXPECT_EQ(trie.exact(pfx("10.0.0.0/9")), nullptr);

  auto lm = trie.longest_match(pfx("10.1.2.0/24"));
  ASSERT_TRUE(lm);
  EXPECT_EQ(lm->first.to_string(), "10.1.0.0/16");
  EXPECT_EQ(*lm->second, 16);

  lm = trie.longest_match(pfx("10.200.0.0/16"));
  ASSERT_TRUE(lm);
  EXPECT_EQ(*lm->second, 8);

  EXPECT_FALSE(trie.longest_match(pfx("11.0.0.0/8")));
  EXPECT_EQ(trie.size(), 3u);
}

TEST(PrefixTrie, ForEachCover) {
  PrefixTrie<int> trie;
  trie.insert(pfx("0.0.0.0/0"), 0);
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  std::vector<int> seen;
  trie.for_each_cover(pfx("10.1.0.0/16"), [&](const Prefix&, int v) {
    seen.push_back(v);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 8, 16}));
}

TEST(Martians, V4) {
  EXPECT_TRUE(is_martian(pfx("10.1.2.0/24")));
  EXPECT_TRUE(is_martian(pfx("192.168.0.0/16")));
  EXPECT_TRUE(is_martian(pfx("127.0.0.1/32")));
  EXPECT_TRUE(is_martian(pfx("224.0.0.0/4")));
  EXPECT_TRUE(is_martian(pfx("240.0.0.0/4")));
  EXPECT_FALSE(is_martian(pfx("8.8.8.0/24")));
  EXPECT_FALSE(is_martian(pfx("193.0.0.0/8")));
}

TEST(Martians, V6) {
  EXPECT_TRUE(is_martian(pfx("fc00::/8")));
  EXPECT_TRUE(is_martian(pfx("fe80::/10")));
  EXPECT_TRUE(is_martian(pfx("ff00::/8")));      // multicast: outside 2000::/3
  EXPECT_TRUE(is_martian(pfx("::/0")));          // covers non-global space
  EXPECT_TRUE(is_martian(pfx("2001:db8::/32")));  // documentation
  EXPECT_FALSE(is_martian(pfx("2001:db7::/32")));
  EXPECT_FALSE(is_martian(pfx("2600::/12")));
}

// ---------------------------------------------------------------------------
// PrefixTrie against a std::map reference under seeded insert/erase churn
// ---------------------------------------------------------------------------

/// Prefixes from a small universe, so inserts and erases collide: a few
/// address stems shared by both families (v4/v6 twins: equal address words
/// and length), every length from /0 to the family maximum.
Prefix random_prefix(std::mt19937_64& rng) {
  static constexpr std::uint64_t kStems[] = {0, 0x0a00000000000000ull, 0x0a01000000000000ull,
                                             0xc000020000000000ull, 0xffffffffffffffffull};
  const bool v4 = rng() % 2 == 0;
  const std::uint64_t hi = kStems[rng() % std::size(kStems)] ^ (rng() % 4 == 0 ? rng() : 0);
  const std::uint64_t lo = v4 ? 0 : (rng() % 2 == 0 ? 0 : rng());
  const std::uint8_t max = v4 ? 32 : 128;
  // Short prefixes often, so /0 and the first levels see churn too.
  const auto len = static_cast<std::uint8_t>(rng() % 3 == 0 ? rng() % 4 : rng() % (max + 1));
  return v4 ? Prefix(IpAddress(Family::kIpv4, hi & 0xffffffff00000000ull, 0), len)
            : Prefix(IpAddress::v6(hi, lo), len);
}

/// Nodes a trie holding exactly `ref` has: every prefix on the path to a
/// stored one, plus the two family roots.
std::size_t reference_nodes(const std::map<Prefix, int>& ref) {
  std::set<Prefix> nodes{Prefix(IpAddress(Family::kIpv4, 0, 0), 0), Prefix(IpAddress::v6(0, 0), 0)};
  for (const auto& [prefix, value] : ref) {
    for (int len = 0; len <= prefix.length(); ++len) {
      nodes.insert(Prefix(prefix.address(), static_cast<std::uint8_t>(len)));
    }
  }
  return nodes.size();
}

void expect_matches_reference(const PrefixTrie<int>& trie, const std::map<Prefix, int>& ref,
                              std::mt19937_64& rng) {
  ASSERT_EQ(trie.size(), ref.size());
  std::vector<std::pair<Prefix, int>> walked;
  trie.for_each([&](const Prefix& p, int v) { walked.emplace_back(p, v); });
  EXPECT_EQ(walked, (std::vector<std::pair<Prefix, int>>(ref.begin(), ref.end())));
  EXPECT_EQ(trie.node_count(), reference_nodes(ref));
  EXPECT_LE(trie.node_slots(), 2 * trie.node_count());

  for (int probe = 0; probe < 40; ++probe) {
    const Prefix p = random_prefix(rng);
    const auto it = ref.find(p);
    const int* exact = trie.exact(p);
    EXPECT_EQ(exact != nullptr, it != ref.end()) << p.to_string();
    if (exact != nullptr && it != ref.end()) {
      EXPECT_EQ(*exact, it->second);
    }

    std::vector<std::pair<Prefix, int>> covers_ref;
    for (const auto& [q, v] : ref) {
      if (q.covers(p)) covers_ref.emplace_back(q, v);
    }
    std::sort(covers_ref.begin(), covers_ref.end(),
              [](const auto& a, const auto& b) { return a.first.length() < b.first.length(); });
    std::vector<std::pair<Prefix, int>> covers;
    trie.for_each_cover(p, [&](const Prefix& q, int v) {
      covers.emplace_back(q, v);
      return true;
    });
    EXPECT_EQ(covers, covers_ref) << p.to_string();

    const auto lm = trie.longest_match(p);
    ASSERT_EQ(lm.has_value(), !covers_ref.empty()) << p.to_string();
    if (lm) {
      EXPECT_EQ(lm->first, covers_ref.back().first);
      EXPECT_EQ(*lm->second, covers_ref.back().second);
    }
  }
}

TEST(PrefixTrie, SeededInsertEraseMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    PrefixTrie<int> trie;
    std::map<Prefix, int> ref;
    for (int step = 0; step < 1500; ++step) {
      // Grow for a while, then shrink, so erase() drives compaction.
      const bool grow = (step / 500) % 2 == 0 ? rng() % 4 != 0 : rng() % 4 == 0;
      if (grow) {
        const Prefix p = random_prefix(rng);
        const int v = static_cast<int>(rng() % 1000);
        trie.insert(p, v);
        ref[p] = v;
      } else {
        Prefix p = random_prefix(rng);
        if (!ref.empty() && rng() % 4 != 0) {
          p = std::next(ref.begin(), static_cast<std::ptrdiff_t>(rng() % ref.size()))->first;
        }
        EXPECT_EQ(trie.erase(p), ref.erase(p) == 1) << p.to_string();
      }
      if (step % 100 == 99) expect_matches_reference(trie, ref, rng);
    }
    expect_matches_reference(trie, ref, rng);

    // A copy is independent of its source.
    PrefixTrie<int> copy = trie;
    std::map<Prefix, int> copy_ref = ref;
    for (const auto& [p, v] : ref) {
      if (rng() % 2 == 0) {
        copy.erase(p);
        copy_ref.erase(p);
      }
    }
    expect_matches_reference(copy, copy_ref, rng);
    expect_matches_reference(trie, ref, rng);

    // Erasing everything leaves the two roots.
    for (const auto& [p, v] : ref) EXPECT_TRUE(trie.erase(p));
    EXPECT_TRUE(trie.empty());
    EXPECT_EQ(trie.node_count(), 2u);
  }
}

TEST(PrefixTrie, EraseKeepsCoveringAndCoveredNeighbours) {
  PrefixTrie<int> trie;
  trie.insert(pfx("0.0.0.0/0"), 0);
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  trie.insert(pfx("::/0"), 60);
  trie.insert(pfx("a00::/8"), 68);  // the v6 twin of 10.0.0.0/8
  const std::size_t nodes = trie.node_count();

  EXPECT_TRUE(trie.erase(pfx("10.0.0.0/8")));  // interior: no node goes
  EXPECT_FALSE(trie.erase(pfx("10.0.0.0/8")));
  EXPECT_EQ(trie.node_count(), nodes);
  EXPECT_EQ(*trie.exact(pfx("10.1.0.0/16")), 16);
  EXPECT_EQ(*trie.exact(pfx("a00::/8")), 68);

  EXPECT_TRUE(trie.erase(pfx("0.0.0.0/0")));  // the root stays
  EXPECT_EQ(trie.node_count(), nodes);
  EXPECT_TRUE(trie.erase(pfx("10.1.0.0/16")));  // its whole branch goes
  EXPECT_EQ(trie.node_count(), nodes - 16);
  EXPECT_FALSE(trie.longest_match(pfx("10.1.2.0/24")));
  EXPECT_EQ(*trie.longest_match(pfx("a00::/16"))->second, 68);
  trie.insert(pfx("10.1.0.0/16"), 17);  // the branch grows back
  EXPECT_EQ(trie.node_count(), nodes);
  EXPECT_EQ(*trie.exact(pfx("10.1.0.0/16")), 17);
}

}  // namespace
}  // namespace rpslyzer::net
