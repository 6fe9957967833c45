// Pins the consolidated splitmix64 in util/rand.hpp, and the one backoff
// ladder in util/backoff.hpp built on it, to exact output vectors. The
// server's reload retries, the edge's reconnects and trace-id minting rely
// on these streams staying decorrelated by seed and reproducible across
// builds; a constant typo would pass every statistical smoke test while
// changing every value, so the vectors are hard-coded.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <set>

#include "rpslyzer/util/backoff.hpp"
#include "rpslyzer/util/rand.hpp"

namespace rpslyzer::util {
namespace {

TEST(Rand, Mix64KnownVectors) {
  // Reference values from the public-domain splitmix64 (Vigna): the first
  // three outputs of the stream seeded with 1234567 are mix64 of the
  // successive gamma increments.
  EXPECT_EQ(mix64(1234567 + kSplitMix64Gamma), 0x599ed017fb08fc85ULL);
  EXPECT_EQ(mix64(1234567 + 2 * kSplitMix64Gamma), 0x2c73f08458540fa5ULL);
  EXPECT_EQ(mix64(0), 0ULL);  // the finalizer fixes zero
}

TEST(Rand, Mix64IsPure) {
  for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1}, kSplitMix64Gamma,
                          ~std::uint64_t{0}, std::uint64_t{0xdeadbeef}}) {
    EXPECT_EQ(mix64(x), mix64(x));
  }
}

TEST(Rand, Mix64IsInjectiveOnSample) {
  // A bijection cannot collide; spot-check a dense low range where a
  // broken shift/multiply constant would alias immediately.
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 10000; ++x) outputs.insert(mix64(x));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(Rand, SplitMixAtMatchesStatefulStream) {
  constexpr std::uint64_t kSeed = 0xabcdef123456ULL;
  SplitMix64 stream(kSeed);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(stream.next(), splitmix64_at(kSeed, i)) << "i=" << i;
  }
}

TEST(Rand, SplitMixAtIsStatelessAndOrderFree) {
  EXPECT_EQ(splitmix64_at(42, 7), splitmix64_at(42, 7));
  const std::uint64_t later = splitmix64_at(42, 9);
  (void)splitmix64_at(42, 0);  // earlier counter query cannot disturb anything
  EXPECT_EQ(splitmix64_at(42, 9), later);
}

TEST(Rand, DistinctSeedsDecorrelate) {
  // Distinct seeds must give distinct streams (bijection ⇒ no collision at
  // equal counters).
  for (std::uint64_t c = 0; c < 64; ++c) {
    EXPECT_NE(splitmix64_at(1, c), splitmix64_at(2, c));
  }
}

TEST(Rand, ConstexprUsable) {
  static_assert(mix64(1) == mix64(1));
  static_assert(splitmix64_at(5, 0) == mix64(5 + kSplitMix64Gamma));
  constexpr std::uint64_t v = splitmix64_at(5, 0);
  EXPECT_NE(v, 0u);
}


TEST(Rand, BackoffLadderKnownVectors) {
  // The first 12 delays (ms) of a 100 ms → 60 s ladder for two seeds, on
  // the server's reload stream (bare seed) and the edge's reconnect stream
  // (seed ^ kReconnectStream), as the two separate ladders produced them
  // before they became one function.
  using std::chrono::milliseconds;
  struct Case {
    std::uint64_t seed;
    std::array<std::int64_t, 12> reload;
    std::array<std::int64_t, 12> reconnect;
  };
  const Case cases[] = {
      {42,
       {82, 207, 342, 763, 1556, 3811, 6419, 14041, 22912, 55244, 59880, 60000},
       {118, 247, 316, 789, 1388, 3747, 7417, 15526, 19225, 56832, 47940, 60000}},
      {0xdeadbeef,
       {100, 168, 455, 871, 1252, 2828, 6214, 14105, 24704, 45056, 48660, 46680},
       {106, 200, 442, 647, 1388, 2736, 5984, 12454, 26060, 44185, 60000, 50040}},
  };
  for (const Case& c : cases) {
    for (unsigned attempt = 0; attempt < 12; ++attempt) {
      EXPECT_EQ(backoff(attempt, milliseconds(100), milliseconds(60000), c.seed).count(),
                c.reload[attempt])
          << "seed=" << c.seed << " attempt=" << attempt;
      EXPECT_EQ(backoff(attempt, milliseconds(100), milliseconds(60000),
                        c.seed ^ kReconnectStream)
                    .count(),
                c.reconnect[attempt])
          << "seed=" << c.seed << " attempt=" << attempt;
    }
  }
}

}  // namespace
}  // namespace rpslyzer::util
