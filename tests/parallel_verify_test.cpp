// Parallel verification must be byte-for-byte identical to the serial
// engine: same statuses, same report items, same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <span>

#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/verify/parallel.hpp"

namespace rpslyzer::verify {
namespace {

struct Pipeline {
  synth::InternetGenerator generator;
  Rpslyzer lyzer;
  std::vector<bgp::Route> routes;

  Pipeline()
      : generator([] {
          synth::SynthConfig config;
          config.seed = 21;
          config.tier1_count = 4;
          config.tier2_count = 10;
          config.tier3_count = 30;
          config.stub_count = 150;
          config.collectors = 6;
          return config;
        }()),
        lyzer([&] {
          std::vector<std::pair<std::string, std::string>> ordered;
          for (const auto& name : synth::irr_names()) {
            ordered.emplace_back(name, generator.irr_dumps().at(name));
          }
          return Rpslyzer::from_texts(ordered, generator.caida_serial1());
        }()) {
    for (const auto& dump : generator.bgp_dumps()) {
      for (auto& route : bgp::parse_table_dump(dump)) routes.push_back(std::move(route));
    }
  }
};

Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

bool same_check(const CheckResult& a, const CheckResult& b) {
  return a.status == b.status && a.items == b.items;
}

TEST(ParallelVerify, MatchesSerialExactly) {
  auto& p = pipeline();
  ASSERT_GT(p.routes.size(), 1000u);

  Verifier serial(p.lyzer.index(), p.lyzer.relations());
  auto parallel = verify_routes_parallel(p.lyzer.snapshot(), p.routes, {}, 4);
  ASSERT_EQ(parallel.size(), p.routes.size());
  for (std::size_t i = 0; i < p.routes.size(); ++i) {
    auto expected = serial.verify_route(p.routes[i]);
    ASSERT_EQ(parallel[i].size(), expected.size()) << i;
    for (std::size_t h = 0; h < expected.size(); ++h) {
      EXPECT_EQ(parallel[i][h].from, expected[h].from);
      EXPECT_EQ(parallel[i][h].to, expected[h].to);
      EXPECT_TRUE(same_check(parallel[i][h].export_result, expected[h].export_result))
          << "route " << i << " hop " << h;
      EXPECT_TRUE(same_check(parallel[i][h].import_result, expected[h].import_result))
          << "route " << i << " hop " << h;
    }
  }
}

TEST(ParallelVerify, SingleThreadAndEmptyInput) {
  auto& p = pipeline();
  std::vector<bgp::Route> empty;
  EXPECT_TRUE(verify_routes_parallel(p.lyzer.snapshot(), empty).empty());

  std::vector<bgp::Route> few(p.routes.begin(), p.routes.begin() + 3);
  auto one_thread = verify_routes_parallel(p.lyzer.snapshot(), few, {}, 1);
  EXPECT_EQ(one_thread.size(), 3u);
}

TEST(ParallelVerify, ManyThreadsOnTinyInputVerifiesEveryRouteOnce) {
  // Threads far outnumber the prefix groups: the worker count is capped
  // at the number of claimed runs, and each route is verified exactly
  // once.
  auto& p = pipeline();
  Verifier serial(p.lyzer.index(), p.lyzer.relations());

  std::vector<bgp::Route> tiny(p.routes.begin(), p.routes.begin() + 3);
  auto tiny_results = verify_routes_parallel(p.lyzer.snapshot(), tiny, {}, 64);
  ASSERT_EQ(tiny_results.size(), 3u);
  for (std::size_t i = 0; i < tiny.size(); ++i) {
    auto expected = serial.verify_route(tiny[i]);
    ASSERT_EQ(tiny_results[i].size(), expected.size()) << i;
    for (std::size_t h = 0; h < expected.size(); ++h) {
      EXPECT_TRUE(same_check(tiny_results[i][h].import_result, expected[h].import_result))
          << "route " << i << " hop " << h;
    }
  }

  // 64 threads over ~200 routes: each worker gets only a few runs.
  ASSERT_GE(p.routes.size(), 200u);
  std::vector<bgp::Route> small(p.routes.begin(), p.routes.begin() + 200);
  auto small_results = verify_routes_parallel(p.lyzer.snapshot(), small, {}, 64);
  ASSERT_EQ(small_results.size(), small.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    auto expected = serial.verify_route(small[i]);
    ASSERT_EQ(small_results[i].size(), expected.size()) << i;
    for (std::size_t h = 0; h < expected.size(); ++h) {
      EXPECT_TRUE(same_check(small_results[i][h].export_result, expected[h].export_result))
          << "route " << i << " hop " << h;
      EXPECT_TRUE(same_check(small_results[i][h].import_result, expected[h].import_result))
          << "route " << i << " hop " << h;
    }
  }
}

/// `routes` reordered so that no two consecutive routes share a prefix:
/// each step takes a route of the prefix with the most routes left, other
/// than the previous route's prefix.
std::vector<bgp::Route> interleave_prefixes(const std::vector<bgp::Route>& routes) {
  std::map<net::Prefix, std::vector<bgp::Route>> groups;
  for (auto it = routes.rbegin(); it != routes.rend(); ++it) groups[it->prefix].push_back(*it);
  std::vector<bgp::Route> out;
  const net::Prefix* last = nullptr;
  while (out.size() < routes.size()) {
    std::vector<bgp::Route>* pick = nullptr;
    const net::Prefix* pick_prefix = nullptr;
    for (auto& [prefix, group] : groups) {
      if (group.empty() || (last != nullptr && prefix == *last)) continue;
      if (pick == nullptr || group.size() > pick->size()) {
        pick = &group;
        pick_prefix = &prefix;
      }
    }
    if (pick == nullptr) break;  // only the previous prefix has routes left
    out.push_back(std::move(pick->back()));
    pick->pop_back();
    last = pick_prefix;
  }
  return out;
}

TEST(ParallelVerify, SnapshotOverloadMatchesSerial) {
  // The verifier groups routes by prefix and must return every result at
  // its input index; an input whose neighbours never share a prefix makes
  // each group's routes scattered across the whole input.
  auto& p = pipeline();
  const std::vector<bgp::Route> first(
      p.routes.begin(), p.routes.begin() + std::min<std::size_t>(400, p.routes.size()));
  const std::vector<bgp::Route> sample = interleave_prefixes(first);
  ASSERT_EQ(sample.size(), first.size());
  for (std::size_t i = 1; i < sample.size(); ++i) {
    ASSERT_FALSE(sample[i].prefix == sample[i - 1].prefix) << i;
  }
  Verifier serial(p.lyzer.index(), p.lyzer.relations());
  auto results = verify_routes_parallel(p.lyzer.snapshot(), sample, {}, 8);
  ASSERT_EQ(results.size(), sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    auto expected = serial.verify_route(sample[i]);
    ASSERT_EQ(results[i].size(), expected.size()) << i;
    for (std::size_t h = 0; h < expected.size(); ++h) {
      EXPECT_EQ(results[i][h].from, expected[h].from) << "route " << i << " hop " << h;
      EXPECT_EQ(results[i][h].to, expected[h].to) << "route " << i << " hop " << h;
      EXPECT_TRUE(same_check(results[i][h].export_result, expected[h].export_result))
          << "route " << i << " hop " << h;
      EXPECT_TRUE(same_check(results[i][h].import_result, expected[h].import_result))
          << "route " << i << " hop " << h;
    }
  }
}

TEST(ParallelVerify, OptionsPropagate) {
  auto& p = pipeline();
  std::vector<bgp::Route> sample(p.routes.begin(),
                                 p.routes.begin() + std::min<std::size_t>(500, p.routes.size()));
  VerifyOptions strict;
  strict.relaxations = false;
  strict.safelists = false;
  auto strict_results = verify_routes_parallel(p.lyzer.snapshot(), sample, strict, 3);
  for (const auto& hops : strict_results) {
    for (const auto& hop : hops) {
      EXPECT_NE(hop.import_result.status, Status::kRelaxed);
      EXPECT_NE(hop.import_result.status, Status::kSafelisted);
      EXPECT_NE(hop.export_result.status, Status::kRelaxed);
      EXPECT_NE(hop.export_result.status, Status::kSafelisted);
    }
  }
}

/// Every result of verify_routes_parallel at several thread counts equals
/// the serial reference Verifier's verify_route on the same route.
void expect_every_thread_count_matches(const Rpslyzer& lyzer,
                                       const std::vector<bgp::Route>& routes) {
  const Verifier serial(lyzer.index(), lyzer.relations());
  for (const unsigned threads : {1u, 2u, 3u, 8u, 64u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const auto results = verify_routes_parallel(lyzer.snapshot(), routes, {}, threads);
    ASSERT_EQ(results.size(), routes.size());
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const auto expected = serial.verify_route(routes[i]);
      ASSERT_EQ(results[i].size(), expected.size()) << "route " << i;
      for (std::size_t h = 0; h < expected.size(); ++h) {
        EXPECT_EQ(results[i][h].from, expected[h].from) << "route " << i << " hop " << h;
        EXPECT_EQ(results[i][h].to, expected[h].to) << "route " << i << " hop " << h;
        EXPECT_TRUE(same_check(results[i][h].export_result, expected[h].export_result))
            << "route " << i << " hop " << h;
        EXPECT_TRUE(same_check(results[i][h].import_result, expected[h].import_result))
            << "route " << i << " hop " << h;
      }
    }
  }
}

TEST(ParallelVerify, DistinctHopGroupingMatchesVerifyRoute) {
  // verify_routes_parallel checks each distinct (prefix, path suffix) once
  // and copies the verdict to every route through it. The inputs a wrong
  // grouping or a wrong copy would get wrong, mixed with plain routes.
  auto& p = pipeline();
  ASSERT_GE(p.routes.size(), 300u);
  std::vector<bgp::Route> routes(p.routes.begin(), p.routes.begin() + 300);

  // Duplicates.
  for (std::size_t i = 0; i < 20; ++i) routes.push_back(p.routes[i]);
  // Empty and one-ASN paths, beside routes of the same prefix.
  routes.push_back({p.routes[0].prefix, {}});
  routes.push_back({p.routes[0].prefix, {p.routes[0].origin()}});
  // A non-adjacent repeated ASN: A B A C.
  const bgp::Route* long_route = nullptr;
  for (const auto& route : p.routes) {
    if (route.path.size() >= 3 && route.path[0] != route.origin()) {
      long_route = &route;
      break;
    }
  }
  ASSERT_NE(long_route, nullptr);
  const bgp::Asn a = long_route->path[0];
  routes.push_back({long_route->prefix, {a, long_route->path[1], a, long_route->origin()}});
  // A v4 and a v6 prefix with equal address words and length.
  const bgp::Route* v4_route = nullptr;
  for (const auto& route : p.routes) {
    if (route.prefix.is_v4() && route.path.size() >= 2) {
      v4_route = &route;
      break;
    }
  }
  ASSERT_NE(v4_route, nullptr);
  const net::Prefix v6_twin(net::IpAddress::v6(v4_route->prefix.address().hi(),
                                               v4_route->prefix.address().lo()),
                            v4_route->prefix.length());
  routes.push_back(*v4_route);
  routes.push_back({v6_twin, v4_route->path});
  // Many vantage points sharing one tail: 40 ASes of the corpus that are
  // not on the path, each in front of it.
  std::set<bgp::Asn> vantage_points;
  for (const auto& route : p.routes) {
    for (const bgp::Asn asn : route.path) {
      if (std::find(long_route->path.begin(), long_route->path.end(), asn) ==
              long_route->path.end() &&
          vantage_points.size() < 40) {
        vantage_points.insert(asn);
      }
    }
  }
  ASSERT_EQ(vantage_points.size(), 40u);
  for (const bgp::Asn vantage : vantage_points) {
    std::vector<bgp::Asn> path = long_route->path;
    path.insert(path.begin(), vantage);
    routes.push_back({long_route->prefix, std::move(path)});
  }
  // Interleave the prefixes.
  std::shuffle(routes.begin(), routes.end(), std::mt19937_64(22));

  expect_every_thread_count_matches(p.lyzer, routes);
}

TEST(ParallelVerify, DistinctHopKeyHoldsPrefixFamilyAndAnnouncedTail) {
  // A hop's verdict depends on the prefix (with its family) and on the
  // whole path its exporter announces, not only on (exporter, importer).
  // Each pair of routes below shares everything but one of those and gets
  // a different verdict, so a grouping that drops it copies a wrong one.
  const std::string rpsl =
      "aut-num: AS1\n"
      "import: from AS2 accept <^AS2 AS3$>\n"
      "import: from AS5 accept 192.0.2.0/24\n"
      "import: from AS6 accept ANY\n\n"
      "aut-num: AS2\nexport: to AS1 announce ANY\n"
      "import: from AS3 accept ANY\nimport: from AS4 accept ANY\n\n"
      "aut-num: AS3\nexport: to AS2 announce ANY\n\n"
      "aut-num: AS4\nexport: to AS2 announce ANY\n"
      "import: from AS3 accept ANY\n\n"
      "aut-num: AS5\nexport: to AS1 announce ANY\n\n"
      "aut-num: AS6\nexport: to AS1 announce ANY\n"
      "mp-export: afi ipv6.unicast to AS1 announce ANY\n";
  const Rpslyzer lyzer = Rpslyzer::from_texts({{"TEST", rpsl}}, "");
  auto route = [](std::string_view prefix, std::vector<bgp::Asn> path) {
    return bgp::Route{*net::Prefix::parse(prefix), std::move(path)};
  };
  const std::vector<bgp::Route> routes = {
      // Same prefix, exporter and importer; tails AS2 AS3 and AS2 AS4 AS3.
      route("203.0.113.0/24", {1, 2, 3}),
      route("203.0.113.0/24", {1, 2, 4, 3}),
      // Same path; only the first prefix passes AS1's filter.
      route("192.0.2.0/24", {1, 5}),
      route("198.51.100.0/24", {1, 5}),
      // Same address words, length and path; AS1's import covers IPv4 only.
      route("10.0.0.0/8", {1, 6}),
      route("a00::/8", {1, 6}),
  };

  // The corpus is decisive: each pair's first-hop import differs.
  const Verifier serial(lyzer.index(), lyzer.relations());
  for (std::size_t i = 0; i < routes.size(); i += 2) {
    const auto first = serial.verify_route(routes[i]);
    const auto second = serial.verify_route(routes[i + 1]);
    EXPECT_EQ(first.back().import_result.status, Status::kVerified) << "route " << i;
    EXPECT_NE(second.back().import_result.status, Status::kVerified) << "route " << i + 1;
  }
  expect_every_thread_count_matches(lyzer, routes);
}

/// rpslyzer_verify_checks_total{path} as it stands.
CheckPathCounts checks_total() {
  CheckPathCounts out{};
  for (std::size_t p = 0; p < kCheckPathCount; ++p) {
    out[p] = obs::MetricsRegistry::global()
                 .counter("rpslyzer_verify_checks_total",
                          "Policy checks by the path that decided them",
                          {{"path", to_string(static_cast<CheckPath>(p))}})
                 .value();
  }
  return out;
}

/// The per-path counts one verify_routes_parallel call adds.
CheckPathCounts checks_of(const Rpslyzer& lyzer, const std::vector<bgp::Route>& routes,
                          unsigned threads) {
  const CheckPathCounts before = checks_total();
  verify_routes_parallel(lyzer.snapshot(), routes, {}, threads);
  CheckPathCounts added = checks_total();
  for (std::size_t p = 0; p < kCheckPathCount; ++p) added[p] -= before[p];
  return added;
}

TEST(ParallelVerify, CheckPathCountsCoverEveryDistinctHop) {
  // Each distinct (prefix, path suffix) hop is checked once for the export
  // and once for the import, so the per-path counts sum to twice the
  // distinct hops at every thread count, and the reference backend checking
  // each distinct hop once counts the same early exits.
  auto& p = pipeline();
  std::set<std::pair<net::Prefix, std::vector<bgp::Asn>>> hops;
  for (const auto& route : p.routes) {
    for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
      hops.emplace(route.prefix, std::vector<bgp::Asn>(route.path.begin() +
                                                           static_cast<std::ptrdiff_t>(i),
                                                       route.path.end()));
    }
  }
  auto sum = [](const CheckPathCounts& counts) {
    return counts[0] + counts[1] + counts[2] + counts[3];
  };
  auto at = [](const CheckPathCounts& counts, CheckPath path) {
    return counts[static_cast<std::size_t>(path)];
  };

  const CheckPathCounts snapshot = checks_of(p.lyzer, p.routes, 1);
  EXPECT_EQ(sum(snapshot), 2 * hops.size());
  EXPECT_GT(at(snapshot, CheckPath::kRejectAll), 0u);
  EXPECT_GT(at(snapshot, CheckPath::kRuleLoop), 0u);
  for (const unsigned threads : {2u, 4u, 64u}) {
    EXPECT_EQ(checks_of(p.lyzer, p.routes, threads), snapshot) << threads;
  }

  // The reference backend has no reject-all path: those checks run the
  // rule loop, and the two early exits count alike. A hop's suffix starts
  // at the importer; the exporter announced the rest of it.
  const Verifier reference(p.lyzer.index(), p.lyzer.relations());
  CheckPathCounts interpreted{};
  for (const auto& [prefix, suffix] : hops) {
    const bgp::Route route{prefix, suffix};
    const std::span<const bgp::Asn> announced(suffix.data() + 1, suffix.size() - 1);
    reference.check_export(suffix[1], suffix[0], route, announced, &interpreted);
    reference.check_import(suffix[0], suffix[1], route, announced, &interpreted);
  }
  EXPECT_EQ(sum(interpreted), 2 * hops.size());
  EXPECT_EQ(at(interpreted, CheckPath::kMissingAutNum), at(snapshot, CheckPath::kMissingAutNum));
  EXPECT_EQ(at(interpreted, CheckPath::kZeroRules), at(snapshot, CheckPath::kZeroRules));
  EXPECT_EQ(at(interpreted, CheckPath::kRejectAll), 0u);
  EXPECT_EQ(at(interpreted, CheckPath::kRuleLoop),
            at(snapshot, CheckPath::kRejectAll) + at(snapshot, CheckPath::kRuleLoop));
}

TEST(IndexPrewarm, StabilizesTaint) {
  // After prewarm, repeated flattening queries return stable pointers.
  auto& p = pipeline();
  p.lyzer.index().prewarm();
  std::vector<const irr::FlattenedAsSet*> first;
  for (const auto& [name, set] : p.lyzer.ir().as_sets) {
    first.push_back(p.lyzer.index().flattened(name));
  }
  std::size_t i = 0;
  for (const auto& [name, set] : p.lyzer.ir().as_sets) {
    EXPECT_EQ(p.lyzer.index().flattened(name), first[i++]) << name;
  }
}

}  // namespace
}  // namespace rpslyzer::verify
