#include "rpslyzer/compile/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "rpslyzer/ir/policy.hpp"
#include "rpslyzer/ir/walk.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::compile {

namespace {

namespace fp = util::failpoint;

using net::Prefix;
using net::RangeOp;

/// Two sorted unique vectors share an element?
bool intersects(std::span<const ir::Asn> a, std::span<const ir::Asn> b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// All remote ASNs named by plain-ASN peerings of this entry. False when
/// any peering is not a plain ASN (sets and AS-ANY mean the AS maintains
/// policies beyond a fixed provider list). Shared §5.1.2 primitive.
bool collect_peering_asns(const ir::Entry& entry, std::vector<ir::Asn>& out) {
  return ir::for_each_factor(entry, [&](const ir::PolicyFactor& factor) {
    for (const auto& pa : factor.peerings) {
      const auto* spec = std::get_if<ir::PeeringSpec>(&pa.peering.node);
      if (spec == nullptr) return false;
      const auto* asn = std::get_if<ir::AsExprAsn>(&spec->as_expr.node);
      if (asn == nullptr) return false;
      out.push_back(asn->asn);
    }
    return true;
  });
}

}  // namespace

namespace detail {

// Shared by build() and build_incremental() (incremental.cpp): one
// monotone process-wide id sequence for in-process snapshot builds.
std::uint64_t allocate_build_id() {
  static std::atomic<std::uint64_t> next_build_id{0};
  return next_build_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

bool only_provider_policies(const irr::Index& index,
                            const relations::AsRelations& relations, ir::Asn asn) {
  // §5.1.2 scopes this to transit ASes ("46 transit ASes only specify rules
  // for their providers"); edge networks with provider-only rules are the
  // normal case, not a safelist.
  const ir::AutNum* an = relations.customers_of(asn).empty() ? nullptr : index.aut_num(asn);
  if (an == nullptr) return false;
  std::vector<ir::Asn> remotes;
  for (const auto* rules : {&an->imports, &an->exports}) {
    for (const auto& rule : *rules) {
      if (!collect_peering_asns(rule.entry, remotes)) return false;
    }
  }
  if (remotes.empty()) return false;
  for (ir::Asn remote : remotes) {
    if (!relations.is_customer_of(asn, remote)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledPolicySnapshot> CompiledPolicySnapshot::build(
    std::shared_ptr<const irr::Index> index,
    std::shared_ptr<const relations::AsRelations> relations) {
  if (auto hit = fp::hit("compile.build"); hit.is_error()) {
    throw std::runtime_error("compile.build failpoint: " + hit.message);
  }
  obs::Span span("compile.build");
  const auto start = std::chrono::steady_clock::now();

  // Materialize every lazily-memoized structure while we are still the only
  // owner; afterwards all Index/AsRelations queries the snapshot forwards
  // are pure reads.
  index->prewarm();
  relations->tier1();

  std::shared_ptr<CompiledPolicySnapshot> snap(new CompiledPolicySnapshot());
  snap->index_ = std::move(index);
  snap->relations_ = std::move(relations);
  snap->build_id_ = detail::allocate_build_id();

  snap->build_as_sets();
  snap->build_origin_trie();
  snap->build_route_sets();
  snap->build_aut_nums();

  snap->trie_nodes_ = snap->origins_->node_count();
  for (const auto& [id, set] : snap->route_sets_) {
    snap->trie_nodes_ += set.bases.node_count();
  }

  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Histogram& build_seconds = registry.histogram(
      "rpslyzer_compile_build_seconds", "Compiled-policy-snapshot build duration",
      obs::exponential_bounds(1e-4, 4.0, 12));
  static obs::Gauge& interned = registry.gauge(
      "rpslyzer_compile_interned_symbols", "Interned set-name symbols in the latest snapshot");
  static obs::Gauge& nodes = registry.gauge(
      "rpslyzer_compile_trie_nodes", "Allocated prefix-trie nodes in the latest snapshot");
  build_seconds.observe(elapsed.count());
  interned.set(static_cast<std::int64_t>(snap->interned_symbols()));
  nodes.set(static_cast<std::int64_t>(snap->trie_nodes_));

  return snap;
}

SymbolId CompiledPolicySnapshot::intern(std::string_view name) {
  return symbols_.intern(name).id;
}

std::optional<SymbolId> CompiledPolicySnapshot::symbol(std::string_view name) const {
  const std::optional<util::Symbol> s = symbols_.find(name);  // case-insensitive
  if (!s) return std::nullopt;
  return s->id;
}

void CompiledPolicySnapshot::build_as_sets() {
  // Pass 1 sizes the pool exactly: spans into it are taken in pass 2 and
  // must never be invalidated by reallocation.
  std::size_t total = 0;
  for (const auto& [name, set] : index_->ir().as_sets) {
    if (const irr::FlattenedAsSet* flat = index_->flattened(name)) total += flat->asns.size();
  }
  as_set_pool_.reserve(total);
  for (const auto& [name, set] : index_->ir().as_sets) {
    const irr::FlattenedAsSet* flat = index_->flattened(name);
    if (flat == nullptr) continue;  // unreachable post-prewarm; stay safe
    CompiledAsSet compiled;
    const std::size_t offset = as_set_pool_.size();
    as_set_pool_.insert(as_set_pool_.end(), flat->asns.begin(), flat->asns.end());
    compiled.asns = std::span<const ir::Asn>(as_set_pool_).subspan(offset, flat->asns.size());
    compiled.contains_any = flat->contains_any;
    for (ir::Asn asn : compiled.asns) {
      if (index_->has_routes(asn)) {
        compiled.any_member_routes = true;
        break;
      }
    }
    as_sets_.emplace(intern(name), std::move(compiled));
  }
}

void CompiledPolicySnapshot::build_origin_trie(const CompiledPolicySnapshot* previous,
                                               const DirtySet* dirty) {
  if (previous != nullptr && dirty != nullptr) {
    // Incremental: the table depends on the route keys alone. Share it when
    // none was added or removed; otherwise copy it and patch the prefixes of
    // the origin-changed ASes, carrying every other entry verbatim.
    if (!dirty->routes_changed) {
      origins_ = previous->origins_;
      return;
    }
    auto table = std::make_shared<OriginTable>(*previous->origins_);
    for (ir::Asn asn : dirty->origins_changed) {
      table->patch(asn, previous->index_->origins_of(asn), index_->origins_of(asn));
    }
    origins_ = std::move(table);
    return;
  }
  std::vector<std::pair<Prefix, ir::Asn>> keys;
  keys.reserve(index_->ir().routes.size());
  for (const ir::RouteObject& r : index_->ir().routes) keys.emplace_back(r.prefix, r.origin);
  origins_ = std::make_shared<const OriginTable>(std::move(keys));
}

OriginTable::OriginTable(std::vector<std::pair<Prefix, ir::Asn>> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  pool_.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size();) {
    const auto offset = static_cast<std::uint32_t>(pool_.size());
    std::size_t j = i;
    for (; j < keys.size() && keys[j].first == keys[i].first; ++j) pool_.push_back(keys[j].second);
    trie_.insert(keys[i].first, Run{offset, static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  live_ = pool_.size();
}

OriginTable::Run OriginTable::append(std::span<const ir::Asn> origins) {
  const Run run{static_cast<std::uint32_t>(pool_.size()),
                static_cast<std::uint32_t>(origins.size())};
  pool_.insert(pool_.end(), origins.begin(), origins.end());
  return run;
}

void OriginTable::insert(const Prefix& prefix, std::span<const ir::Asn> origins) {
  const Run run = append(origins);
  if (Run* old = trie_.exact(prefix)) {
    live_ -= old->size;
    *old = run;
  } else {
    trie_.insert(prefix, run);
  }
  live_ += run.size;
}

void OriginTable::patch(ir::Asn asn, std::span<const Prefix> before,
                        std::span<const Prefix> after) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() || (i < before.size() && before[i] < after[j])) {
      remove(before[i++], asn);
    } else if (i == before.size() || after[j] < before[i]) {
      add(after[j++], asn);
    } else {
      ++i;
      ++j;
    }
  }
  // Compact once the dead entries outnumber the live ones, so a table that
  // is patched forever stays within twice its contents.
  if (pool_.size() - live_ <= live_) return;
  std::vector<ir::Asn> packed;
  packed.reserve(live_);
  trie_.for_each_value([&](Run& run) {
    const auto offset = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), pool_.begin() + run.offset,
                  pool_.begin() + run.offset + run.size);
    run.offset = offset;
  });
  pool_ = std::move(packed);
}

void OriginTable::add(const Prefix& prefix, ir::Asn asn) {
  Run* run = trie_.exact(prefix);
  if (run == nullptr) {
    trie_.insert(prefix, append({&asn, 1}));
    ++live_;
    return;
  }
  // The grown list goes to the end of the pool; the old one is dead.
  std::vector<ir::Asn> grown(pool_.begin() + run->offset,
                             pool_.begin() + run->offset + run->size);
  const auto pos = std::lower_bound(grown.begin(), grown.end(), asn);
  if (pos != grown.end() && *pos == asn) return;
  grown.insert(pos, asn);
  *run = append(grown);
  ++live_;
}

void OriginTable::remove(const Prefix& prefix, ir::Asn asn) {
  Run* run = trie_.exact(prefix);
  if (run == nullptr) return;
  // This copy's pool is its own: shrink the list in place, leaving one dead
  // entry behind it, or drop the prefix with its last origin.
  const auto begin = pool_.begin() + run->offset;
  const auto end = begin + run->size;
  const auto pos = std::lower_bound(begin, end, asn);
  if (pos == end || *pos != asn) return;
  --live_;
  if (run->size == 1) {
    trie_.erase(prefix);
    return;
  }
  std::copy(pos + 1, end, pos);
  --run->size;
}

namespace {

/// Accumulator for one route-set expansion: base prefix -> pre-outer
/// length intervals (deduped at insertion into the trie).
using BaseAccumulator = std::map<Prefix, std::vector<LengthInterval>>;

/// Record base^own with `chain` (innermost first, outer excluded) folded on
/// top. Dead selections (empty interval) are dropped, mirroring
/// matches_with_chain returning false for every prefix.
void add_base(BaseAccumulator& acc, const Prefix& base, const RangeOp& own,
              std::span<const RangeOp> chain) {
  auto interval = net::length_interval(own, base.length(), base.family());
  const std::uint8_t family_max = base.max_length();
  for (const RangeOp& op : chain) {
    if (!interval) return;
    interval = net::step_interval(*interval, op, family_max);
  }
  if (!interval) return;
  acc[base].push_back({interval->first, interval->second});
}

}  // namespace

void CompiledPolicySnapshot::build_route_sets(const CompiledPolicySnapshot* previous,
                                              const DirtySet* dirty,
                                              IncrementalStats* stats) {
  const ir::Ir& ir = index_->ir();

  // member-of reverse map for route objects (the Index keeps its own copy
  // private): canon set symbol -> indices into ir.routes. Only the expansion
  // of a set with mbrs-by-ref reads it, and an incremental build expands
  // only the dirty sets, so it is built on first use.
  using MemberOf = std::unordered_map<ir::Symbol, std::vector<std::size_t>>;
  std::optional<MemberOf> member_of;

  // Expansion mirrors Index::route_set_matches_rec with the query-time
  // prefix abstracted away: matches become (base, pre-outer interval)
  // entries, unknown contributions become the static `unknown` bit (they
  // are all prefix-independent), cycles are cut.
  struct Expander {
    const CompiledPolicySnapshot& snap;
    const ir::Ir& ir;
    std::optional<MemberOf>& member_of;

    const MemberOf& members_by_ref() const {
      if (!member_of) {
        member_of.emplace();
        for (std::size_t i = 0; i < ir.routes.size(); ++i) {
          for (const ir::Symbol set_name : ir.routes[i].member_of) {
            (*member_of)[ir::symbols().canon(set_name)].push_back(i);
          }
        }
      }
      return *member_of;
    }

    void expand(const ir::RouteSet& set, std::vector<RangeOp>& chain, CompiledRouteSet& out,
                BaseAccumulator& acc, std::unordered_set<ir::Symbol>& visiting) const {
      for (const auto* list : {&set.members, &set.mp_members}) {
        for (const auto& member : *list) {
          switch (member.kind) {
            case ir::RouteSetMember::Kind::kAny:
              out.any = true;
              break;
            case ir::RouteSetMember::Kind::kPrefix:
              add_base(acc, member.prefix.prefix, member.prefix.op, chain);
              break;
            case ir::RouteSetMember::Kind::kAsn: {
              std::span<const Prefix> prefixes = snap.index_->origins_of(member.asn);
              if (prefixes.empty()) {
                out.unknown = true;  // zero-route AS: missing information
              } else {
                for (const Prefix& base : prefixes) add_base(acc, base, member.op, chain);
              }
              break;
            }
            case ir::RouteSetMember::Kind::kAsSet: {
              const CompiledAsSet* flat = snap.flattened(ir::sym_view(member.name));
              if (flat == nullptr) {
                out.unknown = true;
                break;
              }
              bool any_routes = false;
              for (ir::Asn asn : flat->asns) {
                std::span<const Prefix> prefixes = snap.index_->origins_of(asn);
                if (prefixes.empty()) continue;
                any_routes = true;
                for (const Prefix& base : prefixes) add_base(acc, base, member.op, chain);
              }
              if (!any_routes && !flat->asns.empty()) out.unknown = true;
              break;
            }
            case ir::RouteSetMember::Kind::kRouteSet: {
              const ir::Symbol member_key = ir::symbols().canon(member.name);
              if (visiting.contains(member_key)) break;  // cycle: nothing new
              const ir::RouteSet* child = snap.index_->route_set(ir::sym_view(member.name));
              if (child == nullptr) {
                out.unknown = true;
                break;
              }
              visiting.insert(member_key);
              // The member's operator applies to the child set first, then
              // the current chain stacks on top (innermost first).
              std::vector<RangeOp> child_chain;
              if (!member.op.is_none()) child_chain.push_back(member.op);
              child_chain.insert(child_chain.end(), chain.begin(), chain.end());
              expand(*child, child_chain, out, acc, visiting);
              visiting.erase(member_key);
              break;
            }
          }
        }
      }

      // Indirect members by reference: route objects naming this set in
      // member-of, admitted by the set's mbrs-by-ref maintainer list.
      if (!set.mbrs_by_ref.empty()) {
        const MemberOf& by_ref = members_by_ref();
        if (auto it = by_ref.find(ir::symbols().canon(set.name)); it != by_ref.end()) {
          for (std::size_t idx : it->second) {
            const ir::RouteObject& r = ir.routes[idx];
            if (irr::mbrs_by_ref_allows(set.mbrs_by_ref, r.mnt_by)) {
              add_base(acc, r.prefix, RangeOp::none(), chain);
            }
          }
        }
      }
    }
  };

  // Stage every expansion first so the interval pool can be reserved to its
  // exact size before any span into it is handed to a trie.
  Expander expander{*this, ir, member_of};
  std::vector<std::pair<CompiledRouteSet, BaseAccumulator>> staged;
  staged.reserve(ir.route_sets.size());
  std::size_t total = 0;
  for (const auto& [name, set] : ir.route_sets) {
    CompiledRouteSet compiled;
    BaseAccumulator acc;
    // Incremental: a clean route-set's expansion cannot have changed, so
    // its staged form is reconstructed from the previous generation's trie
    // (already sorted unique) instead of re-running the expander.
    const CompiledRouteSet* reusable = nullptr;
    if (previous != nullptr && dirty != nullptr && !dirty->route_sets.contains(name)) {
      if (const std::optional<SymbolId> id = previous->symbol(name)) {
        auto it = previous->route_sets_.find(*id);
        if (it != previous->route_sets_.end()) reusable = &it->second;
      }
    }
    if (reusable != nullptr) {
      compiled.any = reusable->any;
      compiled.unknown = reusable->unknown;
      reusable->bases.for_each(
          [&](const Prefix& base, std::span<const LengthInterval> intervals) {
            acc.emplace(base,
                        std::vector<LengthInterval>(intervals.begin(), intervals.end()));
          });
      for (const auto& [base, intervals] : acc) total += intervals.size();
      if (stats != nullptr) ++stats->route_sets_reused;
    } else {
      std::unordered_set<ir::Symbol> visiting;
      visiting.insert(ir::symbols().canon(set.name));
      std::vector<RangeOp> chain;
      expander.expand(set, chain, compiled, acc, visiting);
      for (auto& [base, intervals] : acc) {
        std::sort(intervals.begin(), intervals.end(),
                  [](const LengthInterval& a, const LengthInterval& b) {
                    return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
                  });
        intervals.erase(std::unique(intervals.begin(), intervals.end()), intervals.end());
        total += intervals.size();
      }
      if (stats != nullptr) ++stats->route_sets_recompiled;
    }
    staged.emplace_back(std::move(compiled), std::move(acc));
  }
  interval_pool_.reserve(total);
  std::size_t i = 0;
  for (const auto& [name, set] : ir.route_sets) {
    auto& [compiled, acc] = staged[i++];
    for (const auto& [base, intervals] : acc) {
      const std::size_t offset = interval_pool_.size();
      interval_pool_.insert(interval_pool_.end(), intervals.begin(), intervals.end());
      compiled.bases.insert(base, std::span<const LengthInterval>(interval_pool_)
                                      .subspan(offset, intervals.size()));
    }
    route_sets_.emplace(intern(name), std::move(compiled));
  }
}

void CompiledPolicySnapshot::compile_as_path(const ir::FilterAsPath& filter) {
  if (regexes_.contains(&filter)) return;
  regexes_.emplace(&filter, CompiledAsPath{aspath::CompiledRegex(filter.regex),
                                           ir::uses_skipped_constructs(filter.regex)});
}

bool CompiledPolicySnapshot::rehydrate(const ir::FilterAsPath& filter,
                                       const CompiledPolicySnapshot& previous,
                                       const ir::FilterAsPath& twin) {
  if (regexes_.contains(&filter)) return false;
  auto it = previous.regexes_.find(&twin);
  if (it == previous.regexes_.end() || !it->second.regex.supported()) return false;
  regexes_.emplace(&filter, CompiledAsPath{aspath::CompiledRegex(it->second.regex.image()),
                                           it->second.skipped});
  return true;
}

namespace {

/// A leaf handler that appends each FilterAsPath.
struct AsPathCollector {
  std::vector<const ir::FilterAsPath*>& out;
  void operator()(const ir::FilterAsPath& f) const { out.push_back(&f); }
  void operator()(const auto&) const {}
};

}  // namespace

void collect_as_paths(const ir::Entry& entry, std::vector<const ir::FilterAsPath*>& out) {
  ir::for_each_factor(entry, [&](const ir::PolicyFactor& factor) {
    ir::for_each_leaf(factor.filter, AsPathCollector{out});
  });
}

void collect_as_paths(const ir::FilterSet& set, std::vector<const ir::FilterAsPath*>& out) {
  if (set.has_filter) ir::for_each_leaf(set.filter, AsPathCollector{out});
  if (set.has_mp_filter) ir::for_each_leaf(set.mp_filter, AsPathCollector{out});
}

std::vector<const ir::FilterAsPath*> CompiledPolicySnapshot::as_path_order() const {
  std::vector<const ir::FilterAsPath*> out;
  for (const auto& [asn, an] : index_->ir().aut_nums) {
    // A built or restored snapshot has a piece for every aut-num.
    if (const CompiledAutNum* can = compiled_aut_num(asn)) {
      out.insert(out.end(), can->as_paths.begin(), can->as_paths.end());
    }
  }
  for (const auto& [name, set] : index_->ir().filter_sets) collect_as_paths(set, out);
  return out;
}

CompiledRule CompiledPolicySnapshot::compile_rule(const ir::Rule& rule) const {
  CompiledRule out;
  out.rule = &rule;
  out.covers_v4 = rule.entry.covers_unicast(net::Family::kIpv4, rule.mp);
  out.covers_v6 = rule.entry.covers_unicast(net::Family::kIpv6, rule.mp);
  const auto* term = std::get_if<ir::EntryTerm>(&rule.entry.node);
  if (term == nullptr) return out;  // structured entry: always fully evaluated
  out.no_factors = term->factors.empty();
  for (const auto& factor : term->factors) {
    for (const auto& pa : factor.peerings) {
      const auto* spec = std::get_if<ir::PeeringSpec>(&pa.peering.node);
      const auto* asn = spec != nullptr ? std::get_if<ir::AsExprAsn>(&spec->as_expr.node)
                                        : nullptr;
      if (asn == nullptr) {
        out.no_match_asns.clear();
        return out;  // simple stays false
      }
      // Report order mirrors the interpreted item merge: factor order,
      // first occurrence wins (append() dedups).
      if (std::find(out.no_match_asns.begin(), out.no_match_asns.end(), asn->asn) ==
          out.no_match_asns.end()) {
        out.no_match_asns.push_back(asn->asn);
      }
    }
  }
  out.simple = true;
  out.peers = out.no_match_asns;
  std::sort(out.peers.begin(), out.peers.end());
  return out;
}

CompiledAutNum CompiledPolicySnapshot::compile_aut_num(ir::Asn asn, const ir::AutNum& an,
                                                      const CompiledAutNum* previous_cone,
                                                      RejectAllBuilder& reject_all) {
  auto storage = std::make_shared<CompiledAutNum::Storage>();
  storage->imports = an.imports;
  storage->exports = an.exports;
  storage->rules.reserve(an.imports.size() + an.exports.size());
  for (const auto* rules : {&an.imports, &an.exports}) {
    for (const ir::Rule& rule : *rules) {
      storage->rules.push_back(compile_rule(rule));
      collect_as_paths(rule.entry, storage->as_paths);
    }
  }
  for (const ir::FilterAsPath* path : storage->as_paths) compile_as_path(*path);
  // Cones depend only on the relation graph, so a caller that shares the
  // previous generation's AsRelations hands in the previous cone.
  if (previous_cone != nullptr) {
    storage->asns.assign(previous_cone->customer_cone.begin(),
                         previous_cone->customer_cone.end());
  } else {
    storage->asns = relations_->customer_cone(asn);
  }
  const std::size_t cone = storage->asns.size();

  CompiledAutNum can;
  can.only_provider = only_provider_policies(*index_, *relations_, asn);
  reject_all.finish(can, std::move(storage));
  can.customer_cone = std::span<const ir::Asn>(can.storage->asns).first(cone);
  return can;
}

void CompiledPolicySnapshot::build_aut_nums(const CompiledPolicySnapshot* previous,
                                            const DirtySet* dirty,
                                            IncrementalStats* stats) {
  IncrementalStats unused;
  if (stats == nullptr) stats = &unused;
  const bool incremental = previous != nullptr && dirty != nullptr;
  if (incremental) {
    // Rehydrate clean filter-sets' AS-path NFAs from the previous
    // generation's flat tables (image() -> CompiledRegex skips Thompson
    // construction) before they are compiled below; compile_as_path's
    // regexes_.contains() check then skips recompilation. Pairing is
    // positional over the deterministic filter walk, guarded by an
    // object equality re-check so a missed dirty entry degrades to a
    // recompile, never to a stale automaton.
    for (const auto& [name, set] : index_->ir().filter_sets) {
      if (dirty->filter_sets.contains(name)) continue;
      const ir::FilterSet* prev_fs = previous->index_->filter_set(name);
      if (prev_fs == nullptr || !(*prev_fs == set)) continue;
      std::vector<const ir::FilterAsPath*> olds;
      std::vector<const ir::FilterAsPath*> news;
      collect_as_paths(*prev_fs, olds);
      collect_as_paths(set, news);
      if (olds.size() != news.size()) continue;
      for (std::size_t i = 0; i < news.size(); ++i) {
        if (rehydrate(*news[i], *previous, *olds[i])) ++stats->regexes_reused;
      }
    }
  }

  // A compiled aut-num depends on its rule lists and the relation graph
  // alone. While both are the previous generation's (the delta store shares
  // an unedited aut-num's lists, and the pipeline one AsRelations), the
  // previous piece is carried as is: no rule is read, and only its AS-path
  // regexes (rarely any) are rehydrated into this snapshot's table.
  const bool same_relations = incremental && previous->relations_.get() == relations_.get();
  aut_nums_.reserve(index_->ir().aut_nums.size());
  RejectAllBuilder reject_all;
  for (const auto& [asn, an] : index_->ir().aut_nums) {
    const CompiledAutNum* prev = same_relations ? previous->compiled_aut_num(asn) : nullptr;
    if (prev != nullptr) ++stats->cones_reused;
    if (prev != nullptr && prev->storage->imports.shares(an.imports) &&
        prev->storage->exports.shares(an.exports)) {
      aut_nums_.emplace(asn, *prev);
      ++stats->aut_nums_reused;
      if (prev->as_paths.empty()) {
        ++stats->aut_nums_skipped;
        continue;
      }
      ++stats->aut_nums_rehydrated;
      for (const ir::FilterAsPath* path : prev->as_paths) {
        if (rehydrate(*path, *previous, *path)) {
          ++stats->regexes_reused;
        } else {
          compile_as_path(*path);
        }
      }
      continue;
    }
    aut_nums_.emplace(asn, compile_aut_num(asn, an, prev, reject_all));
  }
  // Filter-set bodies are reached by name at evaluation time; precompile
  // their regexes too so the hot path never falls back to per-call NFA
  // construction.
  std::vector<const ir::FilterAsPath*> set_paths;
  for (const auto& [name, set] : index_->ir().filter_sets) {
    set_paths.clear();
    collect_as_paths(set, set_paths);
    for (const ir::FilterAsPath* path : set_paths) compile_as_path(*path);
  }
  stats->regexes_recompiled = regexes_.size() - stats->regexes_reused;
}

void CompiledPolicySnapshot::RejectAllBuilder::finish(
    CompiledAutNum& can, std::shared_ptr<CompiledAutNum::Storage> storage) {
  const std::span<const CompiledRule> rules(storage->rules);
  can.imports = rules.first(storage->imports.size());
  can.exports = rules.subspan(storage->imports.size());
  can.as_paths = storage->as_paths;
  std::array<Placed, 4> placed;
  derive(can.imports, storage->asns, storage->plans, &can.reject_all[0], &placed[0]);
  derive(can.exports, storage->asns, storage->plans, &can.reject_all[2], &placed[2]);
  const std::span<const ir::Asn> pool(storage->asns);
  const std::span<const std::uint32_t> plan_pool(storage->plans);
  for (std::size_t i = 0; i < placed.size(); ++i) {
    const Placed& p = placed[i];
    can.reject_all[i].peers = pool.subspan(p.peers, p.size);
    can.reject_all[i].no_match_asns = pool.subspan(p.asns, p.size);
    can.reject_all[i].plan = plan_pool.subspan(p.plan, p.plan_size);
  }
  can.storage = std::move(storage);
}

void CompiledPolicySnapshot::RejectAllBuilder::derive(std::span<const CompiledRule> rules,
                                                      std::vector<ir::Asn>& asns,
                                                      std::vector<std::uint32_t>& plans,
                                                      RejectAll* entries, Placed* placed) {
  // One pass stages each family's covering simple rules' ASNs in rule order:
  // the fold plan, and the merged list before deduplication.
  std::array<bool, 2> simple{true, true};
  std::array<bool, 2> no_match{false, false};
  staged_[0].clear();
  staged_[1].clear();
  for (const CompiledRule& rule : rules) {
    const std::array<bool, 2> covers{rule.covers_v4, rule.covers_v6};
    for (std::size_t f = 0; f < 2; ++f) {
      if (!covers[f]) continue;
      if (!rule.simple) {
        simple[f] = false;
        continue;
      }
      no_match[f] = no_match[f] || !rule.no_factors;
      staged_[f].insert(staged_[f].end(), rule.no_match_asns.begin(), rule.no_match_asns.end());
    }
  }
  for (std::size_t f = 0; f < 2; ++f) {
    entries[f] = {simple[f], simple[f] && no_match[f], {}, {}, {}};
    // A simple rule's peers are its no_match_asns sorted, so the union of
    // peers is the staged list sorted and deduplicated.
    const std::vector<ir::Asn>& list = staged_[f];
    union_.assign(list.begin(), list.end());
    std::sort(union_.begin(), union_.end());
    union_.erase(std::unique(union_.begin(), union_.end()), union_.end());
    const std::size_t count = simple[f] ? union_.size() : 0;
    const std::size_t start = asns.size();
    asns.insert(asns.end(), union_.begin(), union_.begin() + static_cast<std::ptrdiff_t>(count));
    // Link each entry to the ASN's previous one. An ASN's first entry is
    // its place in the merged list, so the list is the unlinked entries.
    // The links are all kNoPrev between families.
    if (last_.size() < union_.size()) last_.resize(union_.size(), RejectAll::kNoPrev);
    const std::size_t plan = plans.size();
    for (ir::Asn asn : list) {
      const auto at = static_cast<std::size_t>(
          std::lower_bound(union_.begin(), union_.end(), asn) - union_.begin());
      const std::uint32_t prev = last_[at];
      last_[at] = static_cast<std::uint32_t>(plans.size() - plan);
      plans.push_back(prev);
      if (simple[f] && prev == RejectAll::kNoPrev) asns.push_back(asn);
    }
    std::fill_n(last_.begin(), union_.size(), RejectAll::kNoPrev);
    placed[f] = {start, start + count, count, plan, list.size()};
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

const CompiledAsSet* CompiledPolicySnapshot::flattened(std::string_view name) const {
  const std::optional<SymbolId> id = symbol(name);
  if (!id) return nullptr;
  auto it = as_sets_.find(*id);
  return it == as_sets_.end() ? nullptr : &it->second;
}

bool CompiledPolicySnapshot::contains(std::string_view as_set, ir::Asn asn) const {
  const CompiledAsSet* flat = flattened(as_set);
  return flat != nullptr && flat->contains(asn);
}

bool CompiledPolicySnapshot::is_known(std::string_view as_set) const {
  return index_->is_known(as_set);
}

irr::Lookup CompiledPolicySnapshot::origin_matches(ir::Asn asn, const net::RangeOp& op,
                                                   const net::Prefix& p) const {
  if (!index_->has_routes(asn)) return irr::Lookup::kUnknown;  // zero-route AS
  bool hit = false;
  origins_->for_each_cover(p, [&](const Prefix& base, std::span<const ir::Asn> origins) {
    if (std::binary_search(origins.begin(), origins.end(), asn) &&
        net::matches_with_chain(base, op, {}, p)) {
      hit = true;
      return false;
    }
    return true;
  });
  return hit ? irr::Lookup::kMatch : irr::Lookup::kNoMatch;
}

irr::Lookup CompiledPolicySnapshot::as_set_originates(std::string_view name,
                                                      const net::RangeOp& op,
                                                      const net::Prefix& p) const {
  const CompiledAsSet* flat = flattened(name);
  if (flat == nullptr) return irr::Lookup::kUnknown;
  bool hit = false;
  origins_->for_each_cover(p, [&](const Prefix& base, std::span<const ir::Asn> origins) {
    if (net::matches_with_chain(base, op, {}, p) && intersects(origins, flat->asns)) {
      hit = true;
      return false;
    }
    return true;
  });
  if (hit) return irr::Lookup::kMatch;
  if (!flat->any_member_routes && !flat->asns.empty()) {
    return irr::Lookup::kUnknown;  // all members are zero-route ASes
  }
  return irr::Lookup::kNoMatch;
}

irr::Lookup CompiledPolicySnapshot::route_set_matches(std::string_view name,
                                                      const net::RangeOp& outer,
                                                      const net::Prefix& p) const {
  const std::optional<SymbolId> id = symbol(name);
  const CompiledRouteSet* set = nullptr;
  if (id) {
    auto it = route_sets_.find(*id);
    if (it != route_sets_.end()) set = &it->second;
  }
  if (set == nullptr) return irr::Lookup::kUnknown;
  if (set->any) return irr::Lookup::kMatch;
  const std::uint8_t family_max = p.max_length();
  bool hit = false;
  set->bases.for_each_cover(
      p, [&](const Prefix&, std::span<const LengthInterval> intervals) {
        for (const LengthInterval& iv : intervals) {
          std::optional<std::pair<std::uint8_t, std::uint8_t>> stepped{{iv.lo, iv.hi}};
          if (!outer.is_none()) stepped = net::step_interval(*stepped, outer, family_max);
          if (stepped && p.length() >= stepped->first && p.length() <= stepped->second) {
            hit = true;
            return false;
          }
        }
        return true;
      });
  if (hit) return irr::Lookup::kMatch;
  return set->unknown ? irr::Lookup::kUnknown : irr::Lookup::kNoMatch;
}

aspath::RegexMatch CompiledPolicySnapshot::match_as_path(const ir::FilterAsPath& filter,
                                                         std::span<const ir::Asn> path,
                                                         ir::Asn peer) const {
  aspath::MatchEnv env{path, peer, this};
  auto it = regexes_.find(&filter);
  aspath::RegexMatch result = it != regexes_.end() ? it->second.regex.match(env)
                                                   : aspath::match_nfa(filter.regex, env);
  if (result == aspath::RegexMatch::kUnsupported) {
    result = aspath::match_backtrack(filter.regex, env);
  }
  return result;
}

bool CompiledPolicySnapshot::as_path_skipped(const ir::FilterAsPath& filter) const {
  auto it = regexes_.find(&filter);
  return it != regexes_.end() ? it->second.skipped
                              : ir::uses_skipped_constructs(filter.regex);
}

const CompiledAutNum* CompiledPolicySnapshot::compiled_aut_num(ir::Asn asn) const {
  auto it = aut_nums_.find(asn);
  return it == aut_nums_.end() ? nullptr : &it->second;
}

std::span<const ir::Asn> CompiledPolicySnapshot::exact_origins(
    const net::Prefix& prefix) const {
  return origins_->exact(prefix);
}

}  // namespace rpslyzer::compile
