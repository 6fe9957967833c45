// Incremental snapshot rebuild (the delta pipeline's compile stage).
//
// build() lowers the whole corpus; build_incremental() lowers only the
// dirty set and copies everything else forward from the previous
// generation:
//
//  * clean as-set flattenings are seeded into the fresh index's memo, so
//    prewarm() resolves only the dirty flattening subgraph and
//    build_as_sets() — unchanged code — reproduces identical compiled
//    tables through cheap memo hits;
//  * the origin table is shared when no route key changed, else copied and
//    patched for the origin-changed ASes only;
//  * clean route-set tries are copied; dirty ones re-run the expander;
//  * an aut-num whose rule lists and relation graph are the previous
//    generation's keeps its compiled piece, its AS-path NFAs rehydrated
//    from the previous flat tables (clean filter-sets' likewise); customer
//    cones are carried over whenever the relation graph object is shared.
//
// The contract — enforced by tests/delta_test.cpp and
// scripts/delta_equiv_check.sh — is byte-identical observable behaviour
// versus a from-scratch build of the same corpus.

#include <chrono>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"

namespace rpslyzer::compile {

namespace detail {
std::uint64_t allocate_build_id();  // defined in snapshot.cpp
}  // namespace detail

std::shared_ptr<const CompiledPolicySnapshot> CompiledPolicySnapshot::build_incremental(
    std::shared_ptr<const irr::Index> index,
    std::shared_ptr<const relations::AsRelations> relations,
    const CompiledPolicySnapshot& previous, const DirtySet& dirty,
    IncrementalStats* stats) {
  IncrementalStats local;
  if (stats == nullptr) stats = &local;
  *stats = {};
  if (dirty.everything) {
    stats->full_rebuild = true;
    return build(std::move(index), std::move(relations));
  }

  obs::Span span("delta.compile");
  const auto start = std::chrono::steady_clock::now();

  // Seed clean flattenings from the previous (prewarmed, so reads are pure)
  // generation; prewarm() then walks only the dirty subgraph and leaves the
  // memo complete and untainted, keeping the serve-time thread-safety
  // contract identical to a full build.
  for (const auto& [name, set] : index->ir().as_sets) {
    if (dirty.as_sets.contains(name)) continue;
    if (const irr::FlattenedAsSet* flat = previous.index_->flattened(name)) {
      index->seed_flattened(name, *flat);
      ++stats->as_sets_seeded;
    }
  }
  index->prewarm();
  relations->tier1();

  std::shared_ptr<CompiledPolicySnapshot> snap(new CompiledPolicySnapshot());
  snap->index_ = std::move(index);
  snap->relations_ = std::move(relations);
  snap->build_id_ = detail::allocate_build_id();

  // Capacity (never content) carries across generations: names are
  // re-interned in deterministic build order so the persisted symbol
  // section cannot accumulate deleted names, but the interner's cell
  // arrays are pre-sized so the rebuild never rehashes mid-build.
  snap->symbols_.reserve(previous.interned_symbols());

  snap->build_as_sets();
  snap->build_origin_trie(&previous, &dirty);
  snap->build_route_sets(&previous, &dirty, stats);
  snap->build_aut_nums(&previous, &dirty, stats);

  snap->trie_nodes_ = snap->origins_->node_count();
  for (const auto& [id, set] : snap->route_sets_) {
    snap->trie_nodes_ += set.bases.node_count();
  }

  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Histogram& compile_seconds = registry.histogram(
      "rpslyzer_delta_compile_seconds", "Incremental snapshot rebuild duration",
      obs::exponential_bounds(1e-5, 4.0, 12));
  static obs::Gauge& interned = registry.gauge(
      "rpslyzer_compile_interned_symbols", "Interned set-name symbols in the latest snapshot");
  static obs::Gauge& nodes = registry.gauge(
      "rpslyzer_compile_trie_nodes", "Allocated prefix-trie nodes in the latest snapshot");
  compile_seconds.observe(elapsed.count());
  interned.set(static_cast<std::int64_t>(snap->interned_symbols()));
  nodes.set(static_cast<std::int64_t>(snap->trie_nodes_));

  return snap;
}

}  // namespace rpslyzer::compile
