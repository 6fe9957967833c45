#include "rpslyzer/report/aggregate.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "rpslyzer/report/render.hpp"

namespace rpslyzer::report {
namespace {

using verify::CheckResult;
using verify::HopCheck;
using verify::Reason;

bgp::Route route(std::vector<bgp::Asn> path) {
  return bgp::Route{*net::Prefix::parse("10.0.0.0/8"), std::move(path)};
}

HopCheck hop(verify::Asn from, verify::Asn to, Status export_status, Status import_status,
             std::vector<verify::ReportItem> export_items = {},
             std::vector<verify::ReportItem> import_items = {}) {
  HopCheck h;
  h.from = from;
  h.to = to;
  h.export_result = CheckResult{export_status, std::move(export_items)};
  h.import_result = CheckResult{import_status, std::move(import_items)};
  return h;
}

TEST(StatusCounts, Basics) {
  StatusCounts c;
  EXPECT_EQ(c.total(), 0u);
  EXPECT_FALSE(c.single_status());
  c.add(Status::kVerified);
  c.add(Status::kVerified);
  Status which;
  EXPECT_TRUE(c.single_status(&which));
  EXPECT_EQ(which, Status::kVerified);
  c.add(Status::kUnverified);
  EXPECT_FALSE(c.single_status());
  EXPECT_EQ(c.total(), 3u);
  EXPECT_EQ(c.of(Status::kVerified), 2u);
  auto f = c.fractions();
  EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Status::kVerified)], 2.0 / 3.0);
}

TEST(Aggregator, PerAsPerPairPerRoute) {
  Aggregator agg;
  agg.add(route({3, 2, 1}),
          {hop(1, 2, Status::kVerified, Status::kUnrecorded),
           hop(2, 3, Status::kSafelisted, Status::kVerified)});
  agg.add(route({2, 1}), {hop(1, 2, Status::kVerified, Status::kUnrecorded)});

  EXPECT_EQ(agg.total_checks(), 6u);
  EXPECT_EQ(agg.total_routes(), 2u);

  // AS1 exported twice (both verified).
  EXPECT_EQ(agg.as_exports().at(1).of(Status::kVerified), 2u);
  // AS2 imported twice (unrecorded) and exported once (safelisted).
  EXPECT_EQ(agg.as_imports().at(2).of(Status::kUnrecorded), 2u);
  EXPECT_EQ(agg.as_exports().at(2).of(Status::kSafelisted), 1u);
  // Combined view merges both directions.
  EXPECT_EQ(agg.as_combined().at(2).total(), 3u);

  // Pair (1,2) import checks: 2 unrecorded.
  EXPECT_EQ(agg.pair_imports().at({1, 2}).of(Status::kUnrecorded), 2u);
  EXPECT_EQ(agg.pair_exports().at({1, 2}).of(Status::kVerified), 2u);

  // Per-route: the first route saw 4 checks, the second 2.
  ASSERT_EQ(agg.routes().size(), 2u);
  EXPECT_EQ(agg.routes()[0].total(), 4u);
  EXPECT_EQ(agg.routes()[1].total(), 2u);

  // First-hop counts: 2 routes x (export + import).
  EXPECT_EQ(agg.first_hops().total(), 4u);
}

TEST(Aggregator, UnrecordedBreakdown) {
  Aggregator agg;
  agg.add(route({2, 1}),
          {hop(1, 2, Status::kUnrecorded, Status::kUnrecorded,
               {{Reason::kUnrecordedAutNum, 1, {}}},
               {{Reason::kUnrecordedAsSet, 0, "AS-GONE"}})});
  const auto& unrecorded = agg.unrecorded();
  EXPECT_EQ(unrecorded.at(1)[size_t(UnrecordedCategory::kMissingAutNum)], 1u);
  EXPECT_EQ(unrecorded.at(2)[size_t(UnrecordedCategory::kMissingSet)], 1u);
}

TEST(Aggregator, SpecialBreakdownAndOppVariants) {
  Aggregator agg;
  agg.add(route({2, 1}),
          {hop(1, 2, Status::kRelaxed, Status::kSafelisted,
               {{Reason::kRelaxedExportSelf, 0, {}}},
               {{Reason::kSpecOtherOnlyProviderPolicies, 0, {}}})});
  agg.add(route({3, 1}),
          {hop(1, 3, Status::kSafelisted, Status::kSafelisted,
               {{Reason::kSpecUphill, 0, {}}},
               {{Reason::kSpecCustomerOnlyProviderPolicies, 0, {}}})});
  const auto& special = agg.special_cases();
  EXPECT_EQ(special.at(1)[size_t(SpecialCategory::kExportSelf)], 1u);
  EXPECT_EQ(special.at(1)[size_t(SpecialCategory::kUphill)], 1u);
  // Both OPP flavors fold into one Figure 6 category.
  EXPECT_EQ(special.at(2)[size_t(SpecialCategory::kOnlyProviderPolicies)], 1u);
  EXPECT_EQ(special.at(3)[size_t(SpecialCategory::kOnlyProviderPolicies)], 1u);
}

TEST(Aggregator, UnverifiedPeeringVsFilter) {
  Aggregator agg;
  agg.add(route({2, 1}),
          {hop(1, 2, Status::kUnverified, Status::kUnverified,
               {{Reason::kMatchRemoteAsNum, 9, {}}},                       // peering only
               {{Reason::kMatchFilterAsNum, 1, {}}, {Reason::kMatchFilter, 0, {}}})});
  EXPECT_EQ(agg.unverified_checks(), 2u);
  EXPECT_EQ(agg.unverified_peering_undeclared(), 1u);
}

TEST(Summaries, Fig2) {
  Aggregator agg;
  // AS1: all verified; AS2: all unrecorded; AS3: mixed.
  agg.add(route({2, 1}), {hop(1, 2, Status::kVerified, Status::kUnrecorded)});
  agg.add(route({3, 1}), {hop(1, 3, Status::kVerified, Status::kUnverified)});
  agg.add(route({3, 2}), {hop(2, 3, Status::kUnrecorded, Status::kVerified)});
  Fig2Summary summary = Fig2Summary::compute(agg);
  EXPECT_EQ(summary.ases, 3u);
  EXPECT_EQ(summary.all_verified, 1u);      // AS1 (two verified exports)
  EXPECT_EQ(summary.all_unrecorded, 1u);    // AS2 (unrecorded both ways)
  EXPECT_EQ(summary.all_same_status, 2u);   // AS1 and AS2
  EXPECT_EQ(summary.any_unrecorded, 1u);    // only AS2
  EXPECT_EQ(summary.any_skip, 0u);
}

TEST(Summaries, Fig3AndFig4) {
  Aggregator agg;
  agg.add(route({2, 1}), {hop(1, 2, Status::kVerified, Status::kVerified)});
  agg.add(route({2, 1}), {hop(1, 2, Status::kVerified, Status::kUnverified,
                              {}, {{Reason::kMatchRemoteAsNum, 5, {}}})});
  Fig3Summary f3 = Fig3Summary::compute(agg);
  EXPECT_EQ(f3.pairs_import, 1u);
  EXPECT_EQ(f3.pairs_import_single_status, 0u);  // verified + unverified mix
  EXPECT_EQ(f3.pairs_export, 1u);
  EXPECT_EQ(f3.pairs_export_single_status, 1u);
  EXPECT_EQ(f3.pairs_with_unverified, 1u);
  EXPECT_EQ(f3.unverified_checks_total, 1u);
  EXPECT_EQ(f3.unverified_checks_peering_undeclared, 1u);

  Fig4Summary f4 = Fig4Summary::compute(agg);
  EXPECT_EQ(f4.routes, 2u);
  EXPECT_EQ(f4.single_status, 1u);
  EXPECT_EQ(f4.single_verified, 1u);
}

// ---------------------------------------------------------------------------
// The hashed aggregator against a plain std::map reference
// ---------------------------------------------------------------------------

using Counts = std::array<std::size_t, kStatusCount>;

Counts widen(const RouteCounts& route) {
  Counts out{};
  std::copy(route.counts.begin(), route.counts.end(), out.begin());
  return out;
}

/// The aggregation semantics written out over ordered maps.
struct Reference {
  std::map<Asn, Counts> as_imports, as_exports, as_combined;
  std::map<std::pair<Asn, Asn>, Counts> pair_imports, pair_exports;
  std::map<Asn, std::array<std::size_t, kUnrecordedCategoryCount>> unrecorded;
  std::map<Asn, std::array<std::size_t, kSpecialCategoryCount>> special;
  Counts first_hops{};
  std::size_t unverified = 0;
  std::size_t undeclared = 0;
  std::vector<Counts> routes;

  static std::optional<std::size_t> unrecorded_index(Reason r) {
    switch (r) {
      case Reason::kUnrecordedAutNum: return 0;
      case Reason::kUnrecordedNoRules: return 1;
      case Reason::kUnrecordedZeroRouteAs: return 2;
      case Reason::kUnrecordedAsSet:
      case Reason::kUnrecordedRouteSet:
      case Reason::kUnrecordedPeeringSet:
      case Reason::kUnrecordedFilterSet: return 3;
      default: return std::nullopt;
    }
  }
  static std::optional<std::size_t> special_index(Reason r) {
    switch (r) {
      case Reason::kRelaxedExportSelf: return 0;
      case Reason::kRelaxedImportCustomer: return 1;
      case Reason::kRelaxedMissingRoutes: return 2;
      case Reason::kSpecCustomerOnlyProviderPolicies:
      case Reason::kSpecOtherOnlyProviderPolicies: return 3;
      case Reason::kSpecTier1Pair: return 4;
      case Reason::kSpecUphill: return 5;
      default: return std::nullopt;
    }
  }

  void check(Asn self, Asn from, Asn to, bool is_import, const CheckResult& c) {
    const auto s = static_cast<std::size_t>(c.status);
    ++(is_import ? as_imports : as_exports)[self][s];
    ++as_combined[self][s];
    ++(is_import ? pair_imports : pair_exports)[{from, to}][s];
    ++routes.back()[s];
    if (c.status == Status::kUnrecorded) {
      auto& cats = unrecorded[self];
      for (const auto& item : c.items) {
        if (auto i = unrecorded_index(item.reason)) ++cats[*i];
      }
    } else if (c.status == Status::kRelaxed || c.status == Status::kSafelisted) {
      auto& cats = special[self];
      for (const auto& item : c.items) {
        if (auto i = special_index(item.reason)) ++cats[*i];
      }
    } else if (c.status == Status::kUnverified) {
      ++unverified;
      bool filter = false;
      for (const auto& item : c.items) {
        filter = filter || (item.reason >= Reason::kMatchFilter &&
                            item.reason <= Reason::kMatchFilterAsPath);
      }
      if (!filter) ++undeclared;
    }
  }

  void add(const std::vector<HopCheck>& hops) {
    routes.emplace_back();
    for (const auto& h : hops) {
      check(h.from, h.from, h.to, false, h.export_result);
      check(h.to, h.from, h.to, true, h.import_result);
    }
    if (!hops.empty()) {
      ++first_hops[static_cast<std::size_t>(hops.front().export_result.status)];
      ++first_hops[static_cast<std::size_t>(hops.front().import_result.status)];
    }
  }
};

template <typename Table>
std::map<typename Table::key_type, Counts> ordered(const Table& table) {
  std::map<typename Table::key_type, Counts> out;
  for (const auto& [key, counts] : table) out[key] = counts.counts;
  return out;
}

bool single(const Counts& c, Status* which = nullptr) {
  StatusCounts sc;
  sc.counts = c;
  return sc.single_status(which);
}

/// Seeded routes whose checks cover every status and every Unrecorded,
/// Special and filter reason, with repeated ASes and pairs.
std::vector<std::pair<bgp::Route, std::vector<HopCheck>>> synthetic_routes(std::uint64_t seed) {
  const std::vector<Reason> unrecorded = {
      Reason::kUnrecordedAutNum,     Reason::kUnrecordedNoRules,
      Reason::kUnrecordedAsSet,      Reason::kUnrecordedRouteSet,
      Reason::kUnrecordedPeeringSet, Reason::kUnrecordedFilterSet,
      Reason::kUnrecordedZeroRouteAs};
  const std::vector<Reason> special = {
      Reason::kRelaxedExportSelf,          Reason::kRelaxedImportCustomer,
      Reason::kRelaxedMissingRoutes,       Reason::kSpecCustomerOnlyProviderPolicies,
      Reason::kSpecOtherOnlyProviderPolicies, Reason::kSpecTier1Pair,
      Reason::kSpecUphill};
  const std::vector<Reason> unverified = {
      Reason::kMatchRemoteAsNum,    Reason::kMatchRemoteAsSet,
      Reason::kMatchRemotePeeringSet, Reason::kMatchFilter,
      Reason::kMatchFilterAsNum,    Reason::kMatchFilterAsSet,
      Reason::kMatchFilterRouteSet, Reason::kMatchFilterPrefixes,
      Reason::kMatchFilterAsPath};
  std::mt19937_64 rng(seed);
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  auto result = [&]() {
    CheckResult c;
    c.status = static_cast<Status>(pick(kStatusCount));
    const std::vector<Reason>* pool = c.status == Status::kUnrecorded ? &unrecorded
                                      : c.status == Status::kRelaxed ||
                                              c.status == Status::kSafelisted
                                          ? &special
                                      : c.status == Status::kUnverified ? &unverified
                                                                          : nullptr;
    if (pool != nullptr) {
      // Up to 70 items, so long lists with a late filter reason occur too.
      const std::size_t items = pick(4) == 0 ? 64 + pick(7) : pick(4);
      for (std::size_t i = 0; i < items; ++i) {
        c.items.push_back({(*pool)[pick(pool->size())], static_cast<Asn>(pick(50)), {}});
      }
    }
    return c;
  };
  std::vector<std::pair<bgp::Route, std::vector<HopCheck>>> out;
  for (std::size_t r = 0; r < 400; ++r) {
    std::vector<bgp::Asn> path;
    const std::size_t length = pick(6);  // 0..5: includes hop-less routes
    for (std::size_t i = 0; i < length; ++i) path.push_back(static_cast<bgp::Asn>(1 + pick(40)));
    std::vector<HopCheck> hops;
    for (std::size_t i = path.size(); i-- > 1;) {
      HopCheck h;
      h.from = path[i];
      h.to = path[i - 1];
      h.export_result = result();
      h.import_result = result();
      hops.push_back(std::move(h));
    }
    out.emplace_back(route(std::move(path)), std::move(hops));
  }
  return out;
}

void expect_matches_reference(const Aggregator& agg, const Reference& ref) {
  EXPECT_EQ(ordered(agg.as_imports()), ref.as_imports);
  EXPECT_EQ(ordered(agg.as_exports()), ref.as_exports);
  EXPECT_EQ(ordered(agg.as_combined()), ref.as_combined);
  EXPECT_EQ(ordered(agg.pair_imports()), ref.pair_imports);
  EXPECT_EQ(ordered(agg.pair_exports()), ref.pair_exports);
  EXPECT_EQ(agg.unrecorded(), ref.unrecorded);
  EXPECT_EQ(agg.special_cases(), ref.special);
  EXPECT_EQ(agg.first_hops().counts, ref.first_hops);
  EXPECT_EQ(agg.total_routes(), ref.routes.size());
  EXPECT_EQ(agg.unverified_checks(), ref.unverified);
  EXPECT_EQ(agg.unverified_peering_undeclared(), ref.undeclared);

  // as_combined() is ordered by ASN, the order figure output relies on.
  std::vector<Asn> keys;
  for (const auto& [asn, counts] : agg.as_combined()) keys.push_back(asn);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  std::vector<std::pair<Asn, Asn>> pair_keys;
  for (const auto& [pair, counts] : agg.pair_imports()) pair_keys.push_back(pair);
  EXPECT_EQ(pair_keys.size(), ref.pair_imports.size());
  EXPECT_TRUE(std::is_sorted(pair_keys.begin(), pair_keys.end()));

  const Fig2Summary f2 = Fig2Summary::compute(agg);
  std::size_t same = 0, verified = 0, unrecorded = 0, relaxed = 0, safelisted = 0, skip = 0,
              any_unrecorded = 0;
  for (const auto& [asn, c] : ref.as_combined) {
    Status which;
    if (single(c, &which)) {
      ++same;
      verified += which == Status::kVerified;
      unrecorded += which == Status::kUnrecorded;
      relaxed += which == Status::kRelaxed;
      safelisted += which == Status::kSafelisted;
    }
    skip += c[std::size_t(Status::kSkip)] > 0;
    any_unrecorded += c[std::size_t(Status::kUnrecorded)] > 0;
  }
  EXPECT_EQ(f2.ases, ref.as_combined.size());
  EXPECT_EQ(f2.all_same_status, same);
  EXPECT_EQ(f2.all_verified, verified);
  EXPECT_EQ(f2.all_unrecorded, unrecorded);
  EXPECT_EQ(f2.all_relaxed, relaxed);
  EXPECT_EQ(f2.all_safelisted, safelisted);
  EXPECT_EQ(f2.any_skip, skip);
  EXPECT_EQ(f2.any_unrecorded, any_unrecorded);

  const Fig3Summary f3 = Fig3Summary::compute(agg);
  std::size_t import_single = 0, export_single = 0, with_unverified = 0;
  for (const auto& [pair, c] : ref.pair_imports) {
    import_single += single(c);
    std::size_t unverified = c[std::size_t(Status::kUnverified)];
    if (auto it = ref.pair_exports.find(pair); it != ref.pair_exports.end()) {
      unverified += it->second[std::size_t(Status::kUnverified)];
    }
    with_unverified += unverified > 0;
  }
  for (const auto& [pair, c] : ref.pair_exports) export_single += single(c);
  EXPECT_EQ(f3.pairs_import, ref.pair_imports.size());
  EXPECT_EQ(f3.pairs_import_single_status, import_single);
  EXPECT_EQ(f3.pairs_export, ref.pair_exports.size());
  EXPECT_EQ(f3.pairs_export_single_status, export_single);
  EXPECT_EQ(f3.pairs_with_unverified, with_unverified);
  EXPECT_EQ(f3.unverified_checks_total, ref.unverified);
  EXPECT_EQ(f3.unverified_checks_peering_undeclared, ref.undeclared);

  const Fig4Summary f4 = Fig4Summary::compute(agg);
  std::size_t route_single = 0, route_verified = 0, route_unrecorded = 0, route_unverified = 0;
  for (const Counts& c : ref.routes) {
    Status which;
    if (!single(c, &which)) continue;
    ++route_single;
    route_verified += which == Status::kVerified;
    route_unrecorded += which == Status::kUnrecorded;
    route_unverified += which == Status::kUnverified;
  }
  EXPECT_EQ(f4.routes, ref.routes.size());
  EXPECT_EQ(f4.single_status, route_single);
  EXPECT_EQ(f4.single_verified, route_verified);
  EXPECT_EQ(f4.single_unrecorded, route_unrecorded);
  EXPECT_EQ(f4.single_unverified, route_unverified);
}

TEST(Aggregator, HashedTablesMatchOrderedReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto routes = synthetic_routes(seed);
    Aggregator agg;
    Reference ref;
    for (const auto& [r, hops] : routes) {
      agg.add(r, hops);
      ref.add(hops);
    }
    expect_matches_reference(agg, ref);
    ASSERT_EQ(agg.routes().size(), ref.routes.size());
    for (std::size_t i = 0; i < ref.routes.size(); ++i) {
      EXPECT_EQ(widen(agg.routes()[i]), ref.routes[i]) << "route " << i;
    }
    // Every status and every Unrecorded and Special category occurred.
    Counts totals{};
    for (const Counts& c : ref.routes) {
      for (std::size_t s = 0; s < kStatusCount; ++s) totals[s] += c[s];
    }
    for (std::size_t s = 0; s < kStatusCount; ++s) EXPECT_GT(totals[s], 0u) << s;
    std::array<std::size_t, kUnrecordedCategoryCount> unrecorded{};
    for (const auto& [asn, cats] : ref.unrecorded) {
      for (std::size_t i = 0; i < cats.size(); ++i) unrecorded[i] += cats[i];
    }
    for (std::size_t n : unrecorded) EXPECT_GT(n, 0u);
    std::array<std::size_t, kSpecialCategoryCount> special{};
    for (const auto& [asn, cats] : ref.special) {
      for (std::size_t i = 0; i < cats.size(); ++i) special[i] += cats[i];
    }
    for (std::size_t n : special) EXPECT_GT(n, 0u);
    EXPECT_GT(ref.undeclared, 0u);
    EXPECT_LT(ref.undeclared, ref.unverified);

    // Adding the same routes in another order changes no table or summary.
    std::shuffle(routes.begin(), routes.end(), std::mt19937_64(seed + 100));
    Aggregator shuffled;
    for (const auto& [r, hops] : routes) shuffled.add(r, hops);
    // The per-route series follows input order; everything else must not.
    std::vector<Counts> a = ref.routes;
    std::vector<Counts> b;
    for (const auto& c : shuffled.routes()) b.push_back(widen(c));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    expect_matches_reference(shuffled, ref);
  }
}

TEST(AsnPairHash, PairsSharingAnAsSpreadAcrossLowBits) {
  // The aggregator's pair table keeps the low bits of the hash, so pairs
  // that share one AS must still land in many cells.
  const AsnPairHash hash;
  for (const Asn fixed : {1u, 3356u, 4294967295u}) {
    std::set<std::size_t> by_to;
    std::set<std::size_t> by_from;
    for (Asn other = 1; other <= 1024; ++other) {
      by_to.insert(hash({other, fixed}) & 1023);
      by_from.insert(hash({fixed, other}) & 1023);
    }
    // 1024 random keys into 1024 cells fill about 647.
    EXPECT_GT(by_to.size(), 580u) << fixed;
    EXPECT_GT(by_from.size(), 580u) << fixed;
  }
}

TEST(Render, StackedChartAndComposition) {
  std::vector<StatusCounts> entities(10);
  for (std::size_t i = 0; i < entities.size(); ++i) {
    entities[i].add(i < 5 ? Status::kVerified : Status::kUnrecorded);
  }
  std::string chart = render_stacked(entities, 10, 4);
  EXPECT_NE(chart.find('V'), std::string::npos);
  EXPECT_NE(chart.find('U'), std::string::npos);
  // Correctness ordering puts verified columns on the left.
  const std::size_t first_row_start = chart.find('|') + 1;
  std::string bottom_row = chart.substr(chart.rfind("|V"), 12);
  EXPECT_FALSE(bottom_row.empty());

  StatusCounts totals;
  totals.add(Status::kVerified);
  totals.add(Status::kVerified);
  totals.add(Status::kUnverified);
  std::string composition = render_composition(totals);
  EXPECT_NE(composition.find("verified 66.7%"), std::string::npos);
  EXPECT_NE(composition.find("unverified 33.3%"), std::string::npos);
  (void)first_row_start;
}

TEST(Render, EmptyData) {
  EXPECT_EQ(render_stacked({}, 10, 4), "(no data)\n");
  StatusCounts empty;
  EXPECT_NE(render_composition(empty).find("verified 0.0%"), std::string::npos);
}

TEST(Render, CsvExport) {
  std::vector<StatusCounts> entities(3);
  entities[0].add(Status::kVerified);
  entities[1].add(Status::kUnverified);
  entities[2].add(Status::kVerified);
  entities[2].add(Status::kUnrecorded);
  std::string csv = to_csv(entities);
  // Header + three rows, ordered by correctness (all-verified first).
  auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 4);
  EXPECT_EQ(csv.substr(0, 5), "index");
  EXPECT_NE(csv.find("0,1.000000,"), std::string::npos);   // all-verified entity first
  EXPECT_NE(csv.find(",1\n"), std::string::npos);          // totals column
}

TEST(Render, Table) {
  std::string table = render_table({{"rows", "5"}, {"cols", "7"}}, 8);
  EXPECT_NE(table.find("rows     5"), std::string::npos);
  EXPECT_NE(table.find("cols     7"), std::string::npos);
}

}  // namespace
}  // namespace rpslyzer::report
