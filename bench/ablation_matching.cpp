// Ablation benches for the design choices DESIGN.md calls out:
//
//  1. AS-path regex: predicate NFA (ours) vs the paper's symbolic
//     Cartesian-product construction vs the backtracking reference.
//  2. Route-object lookup: per-origin binary search (the paper's choice,
//     Appendix B) vs a linear scan baseline.
//  3. as-set membership: memoized flattening (the paper's choice) vs
//     match-time recursive descent.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "rpslyzer/aspath/engine.hpp"
#include "rpslyzer/rpsl/expr_parser.hpp"
#include "symbolic.hpp"

namespace {

using namespace rpslyzer;

const bench::World& world() {
  static bench::World w(std::min(bench::scale_from_env(), 1.0));
  return w;
}

const irr::Index& index() { return world().lyzer.index(); }

// ---------------------------------------------------------------------------
// 1. Regex engines
// ---------------------------------------------------------------------------

ir::AsPathRegex make_regex(std::string_view text) {
  util::Diagnostics diag;
  rpsl::ParseContext ctx{&diag, "bench", "BENCH", 1};
  auto regex = rpsl::parse_aspath_regex(text, ctx);
  if (!regex) std::abort();
  return std::move(*regex);
}

const std::vector<ir::AsPathRegex>& regexes() {
  static std::vector<ir::AsPathRegex> r = [] {
    std::vector<ir::AsPathRegex> out;
    out.push_back(make_regex("^AS100 AS1000+$"));
    out.push_back(make_regex("^[^AS64512-AS65535]*$"));
    out.push_back(make_regex("(AS100|AS101|AS102) .* AS20000"));
    out.push_back(make_regex("^AS100 . AS5000{1,3}$"));
    out.push_back(make_regex(".* PeerAS$"));
    return out;
  }();
  return r;
}

std::vector<std::vector<aspath::Asn>> sample_paths(std::size_t count) {
  std::vector<std::vector<aspath::Asn>> paths;
  for (const auto& route : world().all_routes()) {
    paths.push_back(route.path);
    if (paths.size() >= count) break;
  }
  return paths;
}

template <aspath::RegexMatch (*Engine)(const ir::AsPathRegex&, const aspath::MatchEnv&)>
void run_engine(benchmark::State& state) {
  auto paths = sample_paths(512);
  std::size_t matches = 0;
  for (auto _ : state) {
    matches = 0;
    for (const auto& path : paths) {
      aspath::MatchEnv env{path, path.empty() ? 0 : path.front(), &index()};
      for (const auto& regex : regexes()) {
        if (Engine(regex, env) == aspath::RegexMatch::kMatch) ++matches;
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * paths.size() * regexes().size()));
  state.counters["matches"] = static_cast<double>(matches);
}

aspath::RegexMatch symbolic_adapter(const ir::AsPathRegex& regex,
                                    const aspath::MatchEnv& env) {
  return aspath::match_symbolic(regex, env, 1u << 20);
}

void BM_RegexNfa(benchmark::State& state) { run_engine<aspath::match_nfa>(state); }
void BM_RegexBacktrack(benchmark::State& state) {
  run_engine<aspath::match_backtrack>(state);
}
void BM_RegexSymbolicCartesian(benchmark::State& state) {
  run_engine<symbolic_adapter>(state);
}
BENCHMARK(BM_RegexNfa)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegexBacktrack)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegexSymbolicCartesian)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// 2. Route-object lookup
// ---------------------------------------------------------------------------

std::vector<std::pair<ir::Asn, net::Prefix>> lookup_queries() {
  std::vector<std::pair<ir::Asn, net::Prefix>> queries;
  for (const auto& route : world().all_routes()) {
    queries.emplace_back(route.origin(), route.prefix);
    if (queries.size() >= 4096) break;
  }
  return queries;
}

void BM_OriginLookupBinarySearch(benchmark::State& state) {
  auto queries = lookup_queries();
  std::size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const auto& [asn, prefix] : queries) {
      if (index().origin_matches(asn, net::RangeOp::none(), prefix) == irr::Lookup::kMatch) {
        ++hits;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_OriginLookupBinarySearch)->Unit(benchmark::kMicrosecond);

void BM_OriginLookupLinearScan(benchmark::State& state) {
  // Baseline: scan every route object of the corpus per query.
  auto queries = lookup_queries();
  const auto& all_routes = world().lyzer.ir().routes;
  std::size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const auto& [asn, prefix] : queries) {
      for (const auto& object : all_routes) {
        if (object.origin == asn && object.prefix == prefix) {
          ++hits;
          break;
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_OriginLookupLinearScan)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// 3. as-set membership: flattened vs recursive descent
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, ir::Asn>> membership_queries() {
  std::vector<std::pair<std::string, ir::Asn>> queries;
  const auto& routes = world().all_routes();
  std::size_t i = 0;
  for (const auto& [name, set] : world().lyzer.ir().as_sets) {
    if (routes.empty()) break;
    queries.emplace_back(name, routes[i++ % routes.size()].origin());
    if (queries.size() >= 1024) break;
  }
  return queries;
}

/// Match-time recursive membership test without memoized flattening.
bool recursive_contains(const ir::Ir& ir, std::string_view name, ir::Asn asn,
                        std::set<std::string, util::ILess>& visiting) {
  auto it = ir.as_sets.find(name);
  if (it == ir.as_sets.end()) return false;
  if (!visiting.insert(std::string(name)).second) return false;
  bool found = false;
  for (const auto& member : it->second.members) {
    if (member.kind == ir::AsSetMember::Kind::kAsn && member.asn == asn) {
      found = true;
    } else if (member.kind == ir::AsSetMember::Kind::kSet &&
               recursive_contains(ir, ir::sym_view(member.name), asn, visiting)) {
      found = true;
    }
    if (found) break;
  }
  visiting.erase(std::string(name));
  return found;
}

void BM_AsSetMembershipFlattened(benchmark::State& state) {
  auto queries = membership_queries();
  std::size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const auto& [name, asn] : queries) {
      if (index().contains(name, asn)) ++hits;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_AsSetMembershipFlattened)->Unit(benchmark::kMicrosecond);

void BM_AsSetMembershipRecursive(benchmark::State& state) {
  auto queries = membership_queries();
  std::size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const auto& [name, asn] : queries) {
      std::set<std::string, util::ILess> visiting;
      if (recursive_contains(world().lyzer.ir(), name, asn, visiting)) ++hits;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_AsSetMembershipRecursive)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
