#include "rpslyzer/relations/relations.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

namespace rpslyzer::relations {
namespace {

TEST(Relations, ParseSerial1) {
  util::Diagnostics diag;
  AsRelations rel = AsRelations::parse(
      "# comment\n"
      "1|2|-1\n"
      "2|3|-1\n"
      "1|4|0\n",
      diag);
  EXPECT_TRUE(diag.empty());
  EXPECT_EQ(rel.link_count(), 3u);
  EXPECT_EQ(rel.between(1, 2), Relationship::kProvider);
  EXPECT_EQ(rel.between(2, 1), Relationship::kCustomer);
  EXPECT_EQ(rel.between(1, 4), Relationship::kPeer);
  EXPECT_EQ(rel.between(4, 1), Relationship::kPeer);
  EXPECT_EQ(rel.between(1, 3), Relationship::kNone);
  EXPECT_TRUE(rel.is_provider_of(1, 2));
  EXPECT_TRUE(rel.is_customer_of(3, 2));
  EXPECT_TRUE(rel.are_peers(1, 4));
}

TEST(Relations, ParseCliqueComment) {
  util::Diagnostics diag;
  AsRelations rel = AsRelations::parse(
      "# inferred clique: 10 20 30\n"
      "10|1|-1\n10|20|0\n",
      diag);
  EXPECT_TRUE(rel.is_tier1(10));
  EXPECT_TRUE(rel.is_tier1(30));
  EXPECT_FALSE(rel.is_tier1(1));
  EXPECT_EQ(rel.tier1().size(), 3u);
}

TEST(Relations, MalformedLinesDiagnosed) {
  util::Diagnostics diag;
  AsRelations rel = AsRelations::parse("1|2\nx|y|-1\n1|2|7\n1|2|-1\n", diag);
  EXPECT_EQ(diag.all().size(), 3u);
  EXPECT_EQ(rel.link_count(), 1u);
}

TEST(Relations, CustomerCone) {
  util::Diagnostics diag;
  AsRelations rel = AsRelations::parse(
      "1|2|-1\n1|3|-1\n2|4|-1\n3|4|-1\n4|5|-1\n9|9|0\n", diag);
  EXPECT_EQ(rel.customer_cone(1), (std::vector<Asn>{2, 3, 4, 5}));
  EXPECT_EQ(rel.customer_cone(2), (std::vector<Asn>{4, 5}));
  EXPECT_TRUE(rel.customer_cone(5).empty());
}

TEST(Relations, CustomerConeHandlesCycles) {
  // Inference artifacts can produce p2c cycles; the cone must terminate.
  AsRelations rel;
  rel.add_provider_customer(1, 2);
  rel.add_provider_customer(2, 1);
  EXPECT_EQ(rel.customer_cone(1), (std::vector<Asn>{2}));
}

TEST(Relations, Tier1Inference) {
  // 10, 20, 30 form a provider-free peering clique; 40 is provider-free but
  // only peers with 10.
  AsRelations rel;
  rel.add_peer_peer(10, 20);
  rel.add_peer_peer(10, 30);
  rel.add_peer_peer(20, 30);
  rel.add_peer_peer(40, 10);
  rel.add_provider_customer(10, 1);
  rel.add_provider_customer(20, 2);
  const auto& clique = rel.tier1();
  EXPECT_EQ(clique, (std::vector<Asn>{10, 20, 30}));
  EXPECT_FALSE(rel.is_tier1(40));
}

TEST(Relations, Tier1ExcludesAsesWithProviders) {
  AsRelations rel;
  rel.add_peer_peer(10, 20);
  rel.add_provider_customer(99, 10);  // 10 buys transit: not Tier-1
  EXPECT_FALSE(rel.is_tier1(10));
}

TEST(Relations, DuplicateLinksIgnored) {
  AsRelations rel;
  rel.add_provider_customer(1, 2);
  rel.add_provider_customer(1, 2);
  rel.add_peer_peer(3, 4);
  rel.add_peer_peer(4, 3);
  EXPECT_EQ(rel.link_count(), 2u);
  EXPECT_EQ(rel.customers_of(1).size(), 1u);
  EXPECT_EQ(rel.peers_of(3).size(), 1u);
}

TEST(Relations, Serial1RoundTrip) {
  util::Diagnostics diag;
  AsRelations rel;
  rel.add_provider_customer(10, 1);
  rel.add_provider_customer(20, 2);
  rel.add_peer_peer(10, 20);
  std::string text = rel.to_serial1();
  AsRelations again = AsRelations::parse(text, diag);
  EXPECT_TRUE(diag.empty());
  EXPECT_EQ(again.between(10, 1), Relationship::kProvider);
  EXPECT_EQ(again.between(10, 20), Relationship::kPeer);
  EXPECT_EQ(again.tier1(), rel.tier1());
  EXPECT_EQ(again.to_serial1(), text);
}

TEST(Relations, AllAses) {
  AsRelations rel;
  rel.add_provider_customer(5, 3);
  rel.add_peer_peer(7, 5);
  EXPECT_EQ(rel.all_ases(), (std::vector<Asn>{3, 5, 7}));
}

// The linear model `between` replaced: neighbor lists in insertion order,
// searched one after the other.
struct LinearRelations {
  std::map<Asn, std::vector<Asn>> providers;
  std::map<Asn, std::vector<Asn>> customers;
  std::map<Asn, std::vector<Asn>> peers;
  std::size_t links = 0;

  static bool has(const std::map<Asn, std::vector<Asn>>& map, Asn a, Asn b) {
    auto it = map.find(a);
    return it != map.end() &&
           std::find(it->second.begin(), it->second.end(), b) != it->second.end();
  }
  void add_provider_customer(Asn p, Asn c) {
    if (has(customers, p, c)) return;
    customers[p].push_back(c);
    providers[c].push_back(p);
    ++links;
  }
  void add_peer_peer(Asn a, Asn b) {
    if (has(peers, a, b)) return;
    peers[a].push_back(b);
    peers[b].push_back(a);
    ++links;
  }
  Relationship between(Asn a, Asn b) const {
    if (has(customers, a, b)) return Relationship::kProvider;
    if (has(providers, a, b)) return Relationship::kCustomer;
    if (has(peers, a, b)) return Relationship::kPeer;
    return Relationship::kNone;
  }
  static std::vector<Asn> list(const std::map<Asn, std::vector<Asn>>& map, Asn a) {
    auto it = map.find(a);
    return it == map.end() ? std::vector<Asn>{} : it->second;
  }
};

TEST(Relations, BetweenMatchesLinearSearchOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    const Asn ases = 5 + static_cast<Asn>(rng() % 60);
    auto pick = [&] { return static_cast<Asn>(1 + rng() % ases); };
    AsRelations rel;
    LinearRelations want;
    // Dense enough that pairs repeat: duplicates, reversed duplicates, a
    // pair linked both ways, provider and peer at once, and self-links.
    for (std::size_t n = 4 * ases; n > 0; --n) {
      const Asn a = pick();
      const Asn b = rng() % 40 == 0 ? a : pick();
      if (rng() % 3 == 0) {
        rel.add_peer_peer(a, b);
        want.add_peer_peer(a, b);
      } else {
        rel.add_provider_customer(a, b);
        want.add_provider_customer(a, b);
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(rel.link_count(), want.links);
    for (Asn a = 0; a <= ases + 1; ++a) {
      for (Asn b = 0; b <= ases + 1; ++b) {
        ASSERT_EQ(rel.between(a, b), want.between(a, b)) << a << " -> " << b;
      }
      // Insertion order is kept.
      auto as_vector = [](std::span<const Asn> s) {
        return std::vector<Asn>(s.begin(), s.end());
      };
      EXPECT_EQ(as_vector(rel.customers_of(a)), LinearRelations::list(want.customers, a));
      EXPECT_EQ(as_vector(rel.providers_of(a)), LinearRelations::list(want.providers, a));
      EXPECT_EQ(as_vector(rel.peers_of(a)), LinearRelations::list(want.peers, a));
    }
  }
}

}  // namespace
}  // namespace rpslyzer::relations
