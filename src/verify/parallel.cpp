#include "rpslyzer/verify/parallel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <span>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/util/pool.hpp"
#include "rpslyzer/util/rand.hpp"

namespace rpslyzer::verify {

namespace {

/// Workers claim runs of prefix groups: at most this many groups a run,
/// and fewer when that would leave under kRunsPerWorker runs a worker.
constexpr std::size_t kMaxGroupsPerRun = 128;
constexpr std::size_t kRunsPerWorker = 8;

/// The routes grouped by prefix (groups numbered in order of first
/// appearance), and the groups cut into runs of `groups_per_run`: run b is
/// routes order[starts[b]] up to order[starts[b + 1]], in input order, so
/// a worker writes the results of neighbouring routes one after another
/// and whoever reads the results in route order walks memory in runs.
struct PrefixRuns {
  std::size_t groups_per_run = 1;
  std::vector<std::size_t> group_of;  // per route
  std::vector<std::size_t> order;
  std::vector<std::size_t> starts{0};

  std::size_t size() const noexcept { return starts.size() - 1; }
  std::span<const std::size_t> run(std::size_t b) const noexcept {
    return {order.data() + starts[b], starts[b + 1] - starts[b]};
  }
};

std::uint64_t prefix_hash(const net::Prefix& prefix) noexcept {
  const std::uint64_t tag = std::uint64_t{prefix.length()} << 1 | (prefix.is_v4() ? 1 : 0);
  return util::mix64(prefix.address().hi() ^ util::mix64(prefix.address().lo() ^ tag));
}

/// One pass over `routes` through an open-addressing table keyed on the
/// prefix (family, address words and length), then a counting sort by run.
PrefixRuns group_by_prefix(const std::vector<bgp::Route>& routes, unsigned threads) {
  constexpr std::size_t kNoGroup = SIZE_MAX;
  struct Slot {
    net::Prefix prefix;
    std::size_t group = kNoGroup;
  };
  // Linear probing over a power-of-two table kept at most half full.
  std::vector<Slot> slots(1024);
  auto slot_of = [&](const net::Prefix& prefix) -> Slot& {
    const std::size_t mask = slots.size() - 1;
    std::size_t s = prefix_hash(prefix) & mask;
    while (slots[s].group != kNoGroup && !(slots[s].prefix == prefix)) s = (s + 1) & mask;
    return slots[s];
  };
  PrefixRuns runs;
  runs.group_of.resize(routes.size());
  std::size_t groups = 0;
  for (std::size_t r = 0; r < routes.size(); ++r) {
    if (2 * (groups + 1) > slots.size()) {
      std::vector<Slot> old(2 * slots.size());
      old.swap(slots);
      for (const Slot& slot : old) {
        if (slot.group != kNoGroup) slot_of(slot.prefix) = slot;
      }
    }
    Slot& slot = slot_of(routes[r].prefix);
    if (slot.group == kNoGroup) slot = {routes[r].prefix, groups++};
    runs.group_of[r] = slot.group;
  }

  runs.groups_per_run =
      std::clamp<std::size_t>(groups / (kRunsPerWorker * threads), 1, kMaxGroupsPerRun);
  const std::size_t per_run = runs.groups_per_run;
  std::vector<std::size_t> next((groups + per_run - 1) / per_run);
  for (const std::size_t g : runs.group_of) ++next[g / per_run];
  runs.starts.resize(next.size() + 1);
  for (std::size_t b = 0; b < next.size(); ++b) {
    runs.starts[b + 1] = runs.starts[b] + next[b];
    next[b] = runs.starts[b];
  }
  runs.order.resize(routes.size());
  for (std::size_t r = 0; r < routes.size(); ++r) {
    runs.order[next[runs.group_of[r] / per_run]++] = r;
  }
  return runs;
}

constexpr std::uint32_t kNone = UINT32_MAX;

/// A node of a run's reversed-path tries. Nodes 0 .. groups_per_run - 1
/// are the roots, one per prefix group of the run; each child is the next
/// AS toward the vantage point. A node stands for one path suffix (its AS
/// up to the origin), and a node whose parent is not a root is one hop:
/// its parent's AS exported to its AS.
struct TrieNode {
  Asn asn = 0;
  std::uint32_t parent = kNone;
  std::uint32_t first_child = kNone;
  std::uint32_t next_sibling = kNone;
  std::uint32_t uses = 0;  // routes of the run through this node
};

/// One worker's scratch, reused for every run it verifies: the tries, one
/// hop check per node (unset for the roots and the origins), and each
/// route's vantage-point node.
struct RunScratch {
  std::vector<TrieNode> nodes;
  std::vector<HopCheck> hops;
  std::vector<std::uint32_t> leaves;
};

/// Verify the routes of one run into `results`. Inserting the routes'
/// reversed paths checks each new node's hop once, with the route that
/// created it; then every route takes its nodes' checks in verify_route's
/// order (origin side first), the last route through a node by move and
/// the others by copy.
void verify_run(const Verifier& verifier, const std::vector<bgp::Route>& routes,
                const PrefixRuns& runs, std::size_t b, RunScratch& scratch,
                CheckPathCounts& paths, std::vector<std::vector<HopCheck>>& results) {
  const std::span<const std::size_t> run = runs.run(b);
  std::vector<TrieNode>& nodes = scratch.nodes;
  std::vector<HopCheck>& hops = scratch.hops;
  const std::size_t roots = runs.groups_per_run;
  nodes.assign(roots, TrieNode{});
  hops.clear();
  hops.resize(roots);
  scratch.leaves.clear();
  for (const std::size_t r : run) {
    const bgp::Route& route = routes[r];
    const std::vector<Asn>& path = route.path;
    auto parent = static_cast<std::uint32_t>(runs.group_of[r] % roots);
    for (std::size_t i = path.size(); i-- > 0;) {
      std::uint32_t node = nodes[parent].first_child;
      while (node != kNone && nodes[node].asn != path[i]) node = nodes[node].next_sibling;
      if (node == kNone) {
        node = static_cast<std::uint32_t>(nodes.size());
        TrieNode& fresh = nodes.emplace_back();
        fresh.asn = path[i];
        fresh.parent = parent;
        fresh.next_sibling = nodes[parent].first_child;
        nodes[parent].first_child = node;
        HopCheck& hop = hops.emplace_back();
        if (parent >= roots) {
          // path[i + 1] announced path[i + 1..] to path[i].
          hop.from = path[i + 1];
          hop.to = path[i];
          const std::span<const Asn> announced(path.data() + i + 1, path.size() - i - 1);
          hop.export_result = verifier.check_export(hop.from, hop.to, route, announced, &paths);
          hop.import_result = verifier.check_import(hop.to, hop.from, route, announced, &paths);
        }
      }
      ++nodes[node].uses;
      parent = node;
    }
    scratch.leaves.push_back(parent);
  }
  for (std::size_t k = 0; k < run.size(); ++k) {
    const std::size_t length = routes[run[k]].path.size();
    if (length < 2) continue;
    std::vector<HopCheck>& out = results[run[k]];
    out.resize(length - 1);
    // From the vantage point toward the origin, filling `out` from the back.
    std::uint32_t node = scratch.leaves[k];
    for (std::size_t h = length - 1; h-- > 0; node = nodes[node].parent) {
      if (--nodes[node].uses == 0) {
        out[h] = std::move(hops[node]);
      } else {
        out[h] = hops[node];
      }
    }
  }
}

/// Add one worker's per-path check counts to
/// rpslyzer_verify_checks_total{path}.
void flush_check_paths(const CheckPathCounts& paths) {
  static const std::array<obs::Counter*, kCheckPathCount> counters = [] {
    std::array<obs::Counter*, kCheckPathCount> out{};
    for (std::size_t p = 0; p < kCheckPathCount; ++p) {
      out[p] = &obs::MetricsRegistry::global().counter(
          "rpslyzer_verify_checks_total", "Policy checks by the path that decided them",
          {{"path", to_string(static_cast<CheckPath>(p))}});
    }
    return out;
  }();
  for (std::size_t p = 0; p < kCheckPathCount; ++p) counters[p]->inc(paths[p]);
}

/// `threads` capped at the number of runs.
std::size_t worker_count(unsigned threads, const PrefixRuns& runs) {
  return std::max<std::size_t>(1, std::min<std::size_t>(threads, runs.size()));
}

/// The worker body: `workers` threads claim runs and verify them through
/// the one shared `verifier`. Each route belongs to one run, so each
/// results[i] has one writer. A worker counts its checks per path locally
/// and flushes the counts once, when it runs out of runs.
std::vector<std::vector<HopCheck>> verify_runs(const std::vector<bgp::Route>& routes,
                                               const PrefixRuns& runs, std::size_t workers,
                                               const Verifier& verifier) {
  std::vector<std::vector<HopCheck>> results(routes.size());
  std::atomic<std::size_t> next{0};
  util::run_on_pool(workers, [&](std::size_t) {
    RunScratch scratch;
    CheckPathCounts paths{};
    while (true) {
      const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= runs.size()) break;
      obs::Span batch_span("verify.batch");
      verify_run(verifier, routes, runs, b, scratch, paths, results);
    }
    flush_check_paths(paths);
  });
  return results;
}

}  // namespace

std::vector<std::vector<HopCheck>> verify_routes_parallel(
    std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot,
    const std::vector<bgp::Route>& routes, VerifyOptions options, unsigned threads) {
  obs::Span verify_span("verify.routes");
  threads = util::resolve_threads(threads);
  const PrefixRuns runs = group_by_prefix(routes, threads);
  // One immutable Verifier for everyone; no per-thread state exists.
  const Verifier verifier(std::move(snapshot), options);
  return verify_runs(routes, runs, worker_count(threads, runs), verifier);
}

}  // namespace rpslyzer::verify
