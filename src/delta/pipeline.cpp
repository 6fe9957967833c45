#include "rpslyzer/delta/pipeline.hpp"

#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <variant>

#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::delta {

namespace fp = util::failpoint;

namespace {

struct Metrics {
  obs::Counter& batches_applied;
  obs::Counter& batches_refused;
  obs::Counter& ops_applied;
  obs::Counter& ops_skipped;
  obs::Gauge& dirty_objects;
  obs::Gauge& reused_sets;
  obs::Gauge& journal_serial;
  obs::Histogram& apply_seconds;
};

Metrics& metrics() {
  auto& registry = obs::MetricsRegistry::global();
  static Metrics m{
      registry.counter("rpslyzer_delta_batches_applied_total",
                       "Journal batches applied and published"),
      registry.counter("rpslyzer_delta_batches_refused_total",
                       "Journal batches refused atomically"),
      registry.counter("rpslyzer_delta_ops_applied_total",
                       "Journal ADD/DEL operations applied"),
      registry.counter("rpslyzer_delta_ops_skipped_total",
                       "Journal operations skipped as idempotent serial replay"),
      registry.gauge("rpslyzer_delta_dirty_objects",
                     "Dirty-set size of the last applied batch"),
      registry.gauge("rpslyzer_delta_reused_sets",
                     "Set tables reused from the previous generation by the last apply"),
      registry.gauge("rpslyzer_delta_journal_serial",
                     "Last applied journal serial"),
      registry.histogram("rpslyzer_delta_apply_seconds",
                         "End-to-end journal batch apply duration",
                         obs::exponential_bounds(1e-4, 4.0, 12)),
  };
  return m;
}

void add_member_of(const rpsl::ParsedObject& value,
                   std::set<std::string, util::ILess>& into) {
  if (const auto* an = std::get_if<ir::AutNum>(&value)) {
    for (const ir::Symbol s : an->member_of) into.insert(ir::to_string(s));
  } else if (const auto* route = std::get_if<ir::RouteObject>(&value)) {
    for (const ir::Symbol s : route->member_of) into.insert(ir::to_string(s));
  }
}

/// Close the dirty seeds over the dependency edges the compiler reads:
///  * as-sets: reverse member (kSet) edges — a set containing a dirty set
///    re-flattens;
///  * route-sets: reverse member edges for set references, plus referencing
///    sets whose kAsn/kAsSet members expand origin-changed ASes (as-set
///    expansion is checked against the previous generation's flattening —
///    if the flattening itself changed the set is already dirty).
void close_dirty(compile::DirtySet& dirty, const ir::Ir& new_ir,
                 const compile::CompiledPolicySnapshot& previous,
                 const std::set<std::string, util::ILess>& as_set_seeds,
                 const std::set<std::string, util::ILess>& route_set_seeds,
                 const std::set<ir::Asn>& origins_changed) {
  // --- as-set closure over reverse kSet edges ---
  std::map<std::string, std::vector<std::string>, util::ILess> as_rev;
  for (const auto& [name, set] : new_ir.as_sets) {
    for (const ir::AsSetMember& m : set.members) {
      if (m.kind == ir::AsSetMember::Kind::kSet) as_rev[ir::to_string(m.name)].push_back(name);
    }
  }
  std::vector<std::string> stack(as_set_seeds.begin(), as_set_seeds.end());
  dirty.as_sets.insert(as_set_seeds.begin(), as_set_seeds.end());
  while (!stack.empty()) {
    const std::string name = std::move(stack.back());
    stack.pop_back();
    if (const auto it = as_rev.find(name); it != as_rev.end()) {
      for (const std::string& referrer : it->second) {
        if (dirty.as_sets.insert(referrer).second) stack.push_back(referrer);
      }
    }
  }

  // --- route-set reverse reference maps ---
  std::map<std::string, std::vector<std::string>, util::ILess> rs_rev_set;
  std::map<std::string, std::vector<std::string>, util::ILess> rs_rev_as_set;
  std::map<ir::Asn, std::vector<std::string>> rs_rev_asn;
  for (const auto& [name, set] : new_ir.route_sets) {
    const auto note = [&](const ir::RouteSetMember& m) {
      switch (m.kind) {
        case ir::RouteSetMember::Kind::kRouteSet:
          rs_rev_set[ir::to_string(m.name)].push_back(name);
          break;
        case ir::RouteSetMember::Kind::kAsSet:
          rs_rev_as_set[ir::to_string(m.name)].push_back(name);
          break;
        case ir::RouteSetMember::Kind::kAsn:
          rs_rev_asn[m.asn].push_back(name);
          break;
        default:
          break;
      }
    };
    for (const auto& m : set.members) note(m);
    for (const auto& m : set.mp_members) note(m);
  }

  std::set<std::string, util::ILess> rs_seeds = route_set_seeds;
  for (const ir::Asn asn : origins_changed) {
    if (const auto it = rs_rev_asn.find(asn); it != rs_rev_asn.end()) {
      rs_seeds.insert(it->second.begin(), it->second.end());
    }
  }
  for (const auto& [as_set, referrers] : rs_rev_as_set) {
    bool affected = dirty.as_sets.contains(as_set);
    if (!affected) {
      if (const irr::FlattenedAsSet* flat = previous.index().flattened(as_set)) {
        for (const ir::Asn asn : origins_changed) {
          if (flat->contains(asn)) {
            affected = true;
            break;
          }
        }
      }
      // Undefined in the previous generation and not newly dirty: a set
      // that stays undefined contributes the same unknown bit either way.
    }
    if (affected) rs_seeds.insert(referrers.begin(), referrers.end());
  }

  stack.assign(rs_seeds.begin(), rs_seeds.end());
  dirty.route_sets.insert(rs_seeds.begin(), rs_seeds.end());
  while (!stack.empty()) {
    const std::string name = std::move(stack.back());
    stack.pop_back();
    if (const auto it = rs_rev_set.find(name); it != rs_rev_set.end()) {
      for (const std::string& referrer : it->second) {
        if (dirty.route_sets.insert(referrer).second) stack.push_back(referrer);
      }
    }
  }
}

}  // namespace

DeltaPipeline::DeltaPipeline(std::vector<std::pair<std::string, std::string>> dumps,
                             std::string_view relationships_serial1, Options options)
    : options_(options) {
  store_.init(dumps);
  util::Diagnostics diags;
  auto relations = std::make_shared<relations::AsRelations>(
      relations::AsRelations::parse(relationships_serial1, diags));
  if (relations->link_count() == 0 && diags.error_count() > 0) {
    throw std::runtime_error("delta: unusable relationships text: " +
                             diags.all().front().message);
  }
  relations_ = std::move(relations);

  auto gen = std::make_shared<Generation>();
  gen->ir = std::make_shared<const ir::Ir>(store_.materialize());
  gen->index = std::make_shared<const irr::Index>(*gen->ir);
  gen->snapshot = compile::CompiledPolicySnapshot::build(gen->index, relations_);
  gen->stats.full_rebuild = true;
  publish(std::move(gen));

  reclaimer_ = std::thread([this] { reclaim_loop(); });
}

DeltaPipeline::~DeltaPipeline() {
  {
    std::lock_guard<std::mutex> lock(reclaim_mutex_);
    reclaim_stop_ = true;
  }
  reclaim_cv_.notify_one();
  if (reclaimer_.joinable()) reclaimer_.join();
}

void DeltaPipeline::retire(std::shared_ptr<const Generation> generation) {
  if (generation == nullptr) return;
  // Enqueue only — no notify. Waking the reclaimer here can preempt the
  // apply thread (on saturated hosts the scheduler hands it the CPU at the
  // notify), pulling the teardown right back onto the path we are evicting
  // it from. The reclaimer's timed wait picks the queue up within its poll
  // interval instead; only shutdown notifies.
  std::lock_guard<std::mutex> lock(reclaim_mutex_);
  retired_.push_back(std::move(generation));
}

void DeltaPipeline::reclaim_loop() {
  constexpr auto kPollInterval = std::chrono::milliseconds(20);
  std::unique_lock<std::mutex> lock(reclaim_mutex_);
  for (;;) {
    reclaim_cv_.wait_for(lock, kPollInterval,
                         [this] { return reclaim_stop_; });
    if (retired_.empty()) {
      if (reclaim_stop_) return;
      continue;
    }
    std::vector<std::shared_ptr<const Generation>> drained = std::move(retired_);
    retired_.clear();
    lock.unlock();
    // The actual teardown (if these are the last references), off every lock
    // so apply() and readers never wait on it.
    drained.clear();
    lock.lock();
  }
}

std::shared_ptr<const Generation> DeltaPipeline::current() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return current_;
}

std::shared_ptr<const compile::CompiledPolicySnapshot> DeltaPipeline::current_snapshot()
    const {
  auto gen = current();
  return {gen, gen->snapshot.get()};
}

std::uint64_t DeltaPipeline::applied_serial() const {
  return current()->serial;
}

void DeltaPipeline::publish(std::shared_ptr<const Generation> generation) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  current_ = std::move(generation);
}

ApplyResult DeltaPipeline::apply(const JournalBatch& batch) {
  ApplyResult result;
  std::lock_guard<std::mutex> apply_lock(apply_mutex_);
  obs::Span span("delta.apply");
  const auto start = std::chrono::steady_clock::now();
  auto& m = metrics();

  const auto refuse = [&](std::string error) {
    result.refused = true;
    result.error = std::move(error);
    m.batches_refused.inc();
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++batches_refused_;
    last_error_ = result.error;
  };

  if (const auto hit = fp::hit("delta.apply"); hit.is_error()) {
    refuse(hit.message.empty() ? "delta.apply failpoint" : hit.message);
    return result;
  }

  auto previous = current();
  std::size_t skipped = 0;
  std::string error;
  auto prepared = store_.prepare(batch, previous->serial, &skipped, &error);
  result.ops_skipped = skipped;
  if (!prepared.has_value()) {
    refuse(std::move(error));
    return result;
  }
  if (skipped != 0) m.ops_skipped.inc(skipped);
  if (prepared->empty()) {
    // Pure replay: every serial was already applied. Success, no new
    // generation.
    std::lock_guard<std::mutex> lock(state_mutex_);
    ops_skipped_ += skipped;
    return result;
  }

  // Merged view of every touched identity before mutation (one entry per
  // identity: the pre-batch state, even when a batch touches it twice),
  // next to the op's object, which names the identity's merged key.
  std::map<std::string, std::pair<const rpsl::ParsedObject*, rpsl::ParsedObject>,
           util::ILess>
      before;
  for (const PreparedOp& op : *prepared) {
    if (before.contains(op.identity)) continue;
    before.emplace(op.identity, std::pair{&op.object, store_.merged_object(op.object)});
  }

  auto undo = store_.apply(*prepared);
  bool ok = false;
  std::shared_ptr<const Generation> next;
  compile::DirtySet dirty;
  try {
    // Seed the dirty set from before/after diffs of the merged view — this
    // naturally handles priority shadowing (an ADD in a low-priority source
    // under a high-priority definition changes nothing).
    std::set<std::string, util::ILess> as_set_seeds;
    std::set<std::string, util::ILess> route_set_seeds;
    std::set<ir::Asn> origins_changed;
    for (const auto& [identity, touched] : before) {
      const auto& [keyed, old] = touched;
      const rpsl::ParsedObject now = store_.merged_object(*keyed);
      if (old == now) continue;
      std::visit(util::overloaded{
                     [](std::monostate) {},
                     [&](const ir::AutNum& an) {
                       dirty.aut_nums.insert(an.asn);
                       add_member_of(old, as_set_seeds);
                       add_member_of(now, as_set_seeds);
                     },
                     [&](const ir::AsSet& set) {
                       as_set_seeds.insert(ir::to_string(set.name));
                     },
                     [&](const ir::RouteSet& set) {
                       route_set_seeds.insert(ir::to_string(set.name));
                     },
                     [&](const ir::FilterSet& set) {
                       dirty.filter_sets.insert(ir::to_string(set.name));
                     },
                     // Peering sets are resolved live from the fresh index at
                     // evaluation time; nothing compiled depends on them.
                     [](const ir::PeeringSet&) {},
                     [&](const ir::RouteObject& route) {
                       if (std::holds_alternative<ir::RouteObject>(old) !=
                           std::holds_alternative<ir::RouteObject>(now)) {
                         dirty.routes_changed = true;
                         origins_changed.insert(route.origin);
                       }
                       add_member_of(old, route_set_seeds);
                       add_member_of(now, route_set_seeds);
                     },
                 },
                 *keyed);
    }

    std::shared_ptr<const ir::Ir> ir;
    {
      obs::Span materialize_span("delta.materialize");
      ir = std::make_shared<const ir::Ir>(store_.materialize());
    }
    std::shared_ptr<const irr::Index> index;
    {
      obs::Span index_span("delta.index");
      index = std::make_shared<const irr::Index>(*ir);
    }

    const auto compile_start = std::chrono::steady_clock::now();
    {
      obs::Span dirty_span("delta.dirty");
      if (const auto hit = fp::hit("delta.dirty"); hit.is_error()) {
        dirty.everything = true;  // degrade to a full, still-correct rebuild
      } else {
        close_dirty(dirty, *ir, *previous->snapshot, as_set_seeds, route_set_seeds,
                    origins_changed);
        dirty.origins_changed.assign(origins_changed.begin(), origins_changed.end());
      }
    }

    compile::IncrementalStats stats;
    std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot;
    if (options_.always_full || dirty.everything) {
      stats.full_rebuild = true;
      snapshot = compile::CompiledPolicySnapshot::build(index, relations_);
    } else {
      snapshot = compile::CompiledPolicySnapshot::build_incremental(
          index, relations_, *previous->snapshot, dirty, &stats);
    }
    result.compile_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - compile_start)
            .count();

    auto gen = std::make_shared<Generation>();
    gen->ir = std::move(ir);
    gen->index = std::move(index);
    gen->snapshot = std::move(snapshot);
    gen->serial = prepared->back().serial;
    gen->number = previous->number + 1;
    gen->stats = stats;
    gen->dirty_objects = dirty.size();
    next = std::move(gen);
    ok = true;
  } catch (const std::exception& e) {
    error = std::string("apply failed: ") + e.what();
  }

  if (!ok) {
    store_.revert(std::move(undo));
    refuse(std::move(error));
    return result;
  }

  result.applied = true;
  result.ops_applied = prepared->size();
  result.dirty_objects = next->dirty_objects;

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  m.batches_applied.inc();
  m.ops_applied.inc(prepared->size());
  m.dirty_objects.set(static_cast<std::int64_t>(next->dirty_objects));
  m.reused_sets.set(static_cast<std::int64_t>(next->stats.as_sets_seeded +
                                              next->stats.route_sets_reused));
  m.journal_serial.set(static_cast<std::int64_t>(next->serial));
  m.apply_seconds.observe(elapsed.count());

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    current_ = next;
    ++batches_applied_;
    ops_applied_ += prepared->size();
    ops_skipped_ += skipped;
    last_error_.clear();
  }
  // Tear the superseded generation down on the reclaimer thread: its Ir
  // maps, index and snapshot tables (the rule lists it shares with the new
  // generation just drop a reference) are freed off the apply critical path.
  retire(std::move(previous));
  return result;
}

std::string DeltaPipeline::stats_line() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  const Generation& gen = *current_;
  std::string line = "delta: serial=" + std::to_string(gen.serial) +
                     " generation=" + std::to_string(gen.number) +
                     " batches=" + std::to_string(batches_applied_) +
                     " refused=" + std::to_string(batches_refused_) +
                     " ops=" + std::to_string(ops_applied_) +
                     " skipped=" + std::to_string(ops_skipped_) +
                     " dirty=" + std::to_string(gen.dirty_objects) +
                     " reused=" +
                     std::to_string(gen.stats.as_sets_seeded + gen.stats.route_sets_reused +
                                    gen.stats.regexes_reused) +
                     " full_rebuild=" + (gen.stats.full_rebuild ? "1" : "0");
  if (!last_error_.empty()) line += " last_error=\"" + last_error_ + "\"";
  return line;
}

}  // namespace rpslyzer::delta
