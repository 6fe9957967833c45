// Property sweeps over the RPSL range-operator algebra: the interval-based
// implementation must agree with a brute-force enumeration of "is p inside
// base and is its length selected", across operators, base lengths, and
// candidate lengths, for both families.

#include <gtest/gtest.h>

#include "rpslyzer/net/prefix.hpp"

namespace rpslyzer::net {
namespace {

/// Ground truth: does `op` applied to a base of length `len` select
/// candidate length `cl` (families handled by the caller)?
bool selects(const RangeOp& op, std::uint8_t len, std::uint8_t cl, std::uint8_t max) {
  switch (op.kind) {
    case RangeOp::Kind::kNone:
      return cl == len;
    case RangeOp::Kind::kMinus:
      return cl > len && cl <= max;
    case RangeOp::Kind::kPlus:
      return cl >= len && cl <= max;
    case RangeOp::Kind::kExact:
      return cl == op.n && cl >= len && cl <= max;
    case RangeOp::Kind::kRange:
      return cl >= op.n && cl <= op.m && cl >= len && cl <= max;
  }
  return false;
}

// gtest names each case after a hex dump of its parameter, padding included.
// The padding is spelled out and zeroed so those names are the same on every
// run; left implicit, it held whatever the allocator last put there.
struct OpCase {
  OpCase(RangeOp o, const char* n) : op(o), name(n) {}
  RangeOp op;
  std::uint8_t pad[5] = {};
  const char* name;
};
static_assert(sizeof(OpCase) == 16);

class RangeOpSweep : public ::testing::TestWithParam<OpCase> {};

TEST_P(RangeOpSweep, IntervalMatchesBruteForceV4) {
  const RangeOp op = GetParam().op;
  const IpAddress base_addr = *IpAddress::parse("10.0.0.0");
  for (std::uint8_t len = 0; len <= 32; ++len) {
    const Prefix base(base_addr, len);
    for (std::uint8_t cl = 0; cl <= 32; ++cl) {
      const Prefix candidate(base_addr, cl);  // same bits: inside iff cl >= len
      const bool inside = cl >= len;
      const bool expected = inside && selects(op, len, cl, 32);
      EXPECT_EQ(matches(base, op, candidate), expected)
          << GetParam().name << " len=" << int(len) << " cl=" << int(cl);
    }
  }
}

TEST_P(RangeOpSweep, IntervalMatchesBruteForceV6) {
  const RangeOp op = GetParam().op;
  const IpAddress base_addr = *IpAddress::parse("2400::");
  for (std::uint8_t len = 0; len <= 128; len += 7) {
    const Prefix base(base_addr, len);
    for (std::uint8_t cl = 0; cl <= 128; cl += 5) {
      const Prefix candidate(base_addr, cl);
      const bool inside = cl >= len;
      const bool expected = inside && selects(op, len, cl, 128);
      EXPECT_EQ(matches(base, op, candidate), expected)
          << GetParam().name << " len=" << int(len) << " cl=" << int(cl);
    }
  }
}

TEST_P(RangeOpSweep, OutsidePrefixNeverMatches) {
  const RangeOp op = GetParam().op;
  const Prefix base = *Prefix::parse("10.0.0.0/8");
  const Prefix outside = *Prefix::parse("11.0.0.0/16");
  EXPECT_FALSE(matches(base, op, outside)) << GetParam().name;
  const Prefix wrong_family = *Prefix::parse("2400::/16");
  EXPECT_FALSE(matches(base, op, wrong_family)) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Operators, RangeOpSweep,
    ::testing::Values(OpCase{RangeOp::none(), "none"}, OpCase{RangeOp::minus(), "minus"},
                      OpCase{RangeOp::plus(), "plus"}, OpCase{RangeOp::exact(0), "exact0"},
                      OpCase{RangeOp::exact(16), "exact16"},
                      OpCase{RangeOp::exact(24), "exact24"},
                      OpCase{RangeOp::exact(32), "exact32"},
                      OpCase{RangeOp::exact(128), "exact128"},
                      OpCase{RangeOp::range(8, 16), "range8_16"},
                      OpCase{RangeOp::range(16, 24), "range16_24"},
                      OpCase{RangeOp::range(24, 32), "range24_32"},
                      OpCase{RangeOp::range(0, 128), "range0_128"},
                      OpCase{RangeOp::range(48, 64), "range48_64"}),
    [](const auto& info) { return info.param.name; });

/// Composition ground truth: outer applied to the set {base^inner}.
bool composed_selects(const RangeOp& inner, const RangeOp& outer, std::uint8_t base_len,
                      std::uint8_t cl, std::uint8_t max) {
  // Enumerate intermediate lengths q selected by inner; outer then selects
  // more-specifics of a length-q element.
  for (int q = base_len; q <= max; ++q) {
    if (!selects(inner, base_len, static_cast<std::uint8_t>(q), max)) continue;
    if (selects(outer, static_cast<std::uint8_t>(q), cl, max)) return true;
  }
  return false;
}

struct ComposeCase {  // padding zeroed for the same reason as OpCase
  ComposeCase(RangeOp i, RangeOp o, const char* n) : inner(i), outer(o), name(n) {}
  RangeOp inner;
  RangeOp outer;
  std::uint8_t pad[2] = {};
  const char* name;
};
static_assert(sizeof(ComposeCase) == 16);

class ComposeSweep : public ::testing::TestWithParam<ComposeCase> {};

TEST_P(ComposeSweep, MatchesEnumeration) {
  const RangeOp inner = GetParam().inner;
  const RangeOp outer = GetParam().outer;
  const char* name = GetParam().name;
  const IpAddress base_addr = *IpAddress::parse("10.0.0.0");
  for (std::uint8_t len = 0; len <= 32; len += 4) {
    const Prefix base(base_addr, len);
    for (std::uint8_t cl = 0; cl <= 32; ++cl) {
      const Prefix candidate(base_addr, cl);
      const bool expected = cl >= len && composed_selects(inner, outer, len, cl, 32);
      EXPECT_EQ(matches_composed(base, inner, outer, candidate), expected)
          << name << " len=" << int(len) << " cl=" << int(cl);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Compositions, ComposeSweep,
    ::testing::Values(
        ComposeCase{RangeOp::plus(), RangeOp::minus(), "plus_minus"},
        ComposeCase{RangeOp::minus(), RangeOp::plus(), "minus_plus"},
        ComposeCase{RangeOp::minus(), RangeOp::minus(), "minus_minus"},
        ComposeCase{RangeOp::plus(), RangeOp::plus(), "plus_plus"},
        ComposeCase{RangeOp::range(10, 12), RangeOp::range(14, 16), "range_range"},
        ComposeCase{RangeOp::range(14, 16), RangeOp::range(10, 12), "range_range_empty"},
        ComposeCase{RangeOp::exact(16), RangeOp::exact(24), "exact_exact"},
        ComposeCase{RangeOp::exact(24), RangeOp::exact(16), "exact_exact_empty"},
        ComposeCase{RangeOp::none(), RangeOp::range(20, 28), "none_range"},
        ComposeCase{RangeOp::range(20, 28), RangeOp::none(), "range_none"},
        ComposeCase{RangeOp::exact(16), RangeOp::plus(), "exact_plus"},
        ComposeCase{RangeOp::exact(16), RangeOp::minus(), "exact_minus"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace rpslyzer::net
