#pragma once
// The compiled policy snapshot: a one-shot, immutable lowering of an
// irr::Index + relations::AsRelations into flat match structures, shared
// by the verifier, the query engine, and the server's generation swap.
//
// The interpreted path re-walks aut-num entry trees, lazily flattens
// as-sets under const (a latent data race when an un-prewarmed Index is
// shared), recompiles every AS-path regex per route, and re-derives
// customer cones and only-provider bits in per-Verifier caches. The
// snapshot does each of those exactly once at build time:
//
//  * set names interned into a symbol table; as-set membership flattened
//    (cycle-safe, via the Index's own resolution) into sorted ASN vectors;
//  * route objects loaded into a per-family binary prefix trie keyed by
//    base prefix, each node carrying its sorted origin ASNs;
//  * route-sets pre-expanded (cycle-safe) into a trie of base prefixes with
//    the stacked range-op length intervals pre-composed, leaving only the
//    query-time outer operator to apply;
//  * per-AS import/export rules lowered into flat CompiledRule arrays with
//    plain-ASN peer classes resolved for an O(log n) fast reject;
//  * AS-path regexes pre-lowered to the src/aspath predicate NFA;
//  * customer cones and the §5.1.2 only-provider bit computed per aut-num;
//  * per aut-num, direction and family, the merged outcome of a peer that
//    no rule names (RejectAll), so such checks skip the per-rule loop.
//
// Everything is const after build(); a shared_ptr<const
// CompiledPolicySnapshot> is safely shared across any number of threads
// with no prewarm dance. The behaviour contract — enforced by
// tests/compile_snapshot_test.cpp — is that verification verdicts are
// identical to the interpreted path, item for item.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rpslyzer/aspath/engine.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/net/prefix_trie.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/util/interner.hpp"

namespace rpslyzer::persist {
class SnapshotCodec;
}  // namespace rpslyzer::persist

namespace rpslyzer::compile {

using SymbolId = std::uint32_t;

/// A pre-flattened as-set (the compiled analogue of irr::FlattenedAsSet).
/// The member array is a span so the same struct serves both backings: an
/// in-process build points into the snapshot's ASN pools, an mmap-loaded
/// snapshot points straight into the read-only file mapping (zero copy).
struct CompiledAsSet {
  std::span<const ir::Asn> asns;  // sorted, unique
  bool contains_any = false;      // the erroneous ANY member appears
  /// Some member ASN originates at least one route object — precomputed so
  /// the all-zero-route Unknown case needs no per-query member loop.
  bool any_member_routes = false;

  bool contains(ir::Asn asn) const noexcept {
    auto it = std::lower_bound(asns.begin(), asns.end(), asn);
    return it != asns.end() && *it == asn;
  }
};

/// One pre-composed prefix-length selection: the fold of a member's own
/// range operator and every set-reference operator on the path down to it,
/// with only the query-time outer operator left to apply.
struct LengthInterval {
  std::uint8_t lo = 0;
  std::uint8_t hi = 0;

  friend bool operator==(const LengthInterval&, const LengthInterval&) = default;
};

/// A route-set pre-expanded to its base prefixes. Cycle back-edges are cut
/// (they contribute nothing new); missing referenced objects set `unknown`,
/// which is prefix-independent and therefore a build-time bit.
struct CompiledRouteSet {
  bool any = false;      // a reachable ANY member: every prefix matches
  bool unknown = false;  // some expansion path hit missing information
  net::PrefixTrie<std::span<const LengthInterval>> bases;
};

/// One import/export rule lowered for the hot loop. `rule` stays the source
/// of truth for full evaluation; the flat fields exist for the fast reject
/// of the overwhelmingly common "peering is a plain ASN list that does not
/// name this peer" case, which skips the whole entry-tree walk.
struct CompiledRule {
  const ir::Rule* rule = nullptr;
  bool covers_v4 = false;  // entry.covers_unicast(v4, mp), checked first
  bool covers_v6 = false;
  /// Top-level EntryTerm whose every peering is a plain-ASN PeeringSpec.
  /// Only then is the reject sound: structured entries and set peerings can
  /// produce other outcome classes or cross-factor item merges.
  bool simple = false;
  bool no_factors = false;             // empty term: NotApplicable, no items
  std::vector<ir::Asn> peers;          // sorted unique peer class
  std::vector<ir::Asn> no_match_asns;  // report order (factor order, deduped)
};

/// The merged outcome of one direction's rules for one address family when
/// no rule names the peer: every covering rule then fast-rejects, so the
/// result of the per-rule loop is known at build time. Only sound when every
/// covering rule is `simple`; otherwise the verifier always runs the loop.
struct RejectAll {
  static constexpr std::uint32_t kNoPrev = 0xffffffffu;  // a plan link: first entry

  bool simple = false;    // every rule covering the family is simple
  bool no_match = false;  // some such rule has factors: NoMatchPeering, else NotApplicable
  std::span<const ir::Asn> peers;  // sorted union of the covering rules' peers
  /// MatchRemoteAsNum order: rules in order, each rule's report order, first
  /// occurrence of an ASN kept (what the rule merge yields).
  std::span<const ir::Asn> no_match_asns;
  /// The fold plan, for the loop that runs when some rule names the peer,
  /// set whether or not `simple` holds. Its entries are the no_match_asns of
  /// every covering simple rule, in rule order, so a rule's entries start
  /// where the previous covering simple rule's end; only the links are
  /// stored (the ASNs are the rules' own lists). Each link is the position
  /// of the previous entry with the same ASN, or kNoPrev. A fast-rejected
  /// rule's entry is already in the merged list iff its chain reaches an
  /// entry of an earlier fast-rejected rule (verify::internal::RuleMerge).
  std::span<const std::uint32_t> plan;

  friend bool operator==(const RejectAll& a, const RejectAll& b) {
    return a.simple == b.simple && a.no_match == b.no_match &&
           std::ranges::equal(a.peers, b.peers) &&
           std::ranges::equal(a.no_match_asns, b.no_match_asns) &&
           std::ranges::equal(a.plan, b.plan);
  }
};

/// One aut-num's compiled form: a piece that generations share. The spans
/// point into `storage`, which the piece owns and which copies share, so a
/// clean aut-num is carried into the next generation by copying this struct
/// (the one exception: a snapshot restored from a mapped file points
/// `customer_cone` into the mapping, which outlives the snapshot).
struct CompiledAutNum {
  /// What the spans point into. `imports`/`exports` are the rule lists the
  /// piece was compiled from: they keep every CompiledRule::rule and every
  /// `as_paths` node alive, and a later generation whose lists share these
  /// can carry the piece without looking at a rule.
  struct Storage {
    ir::RuleList imports;
    ir::RuleList exports;
    std::vector<CompiledRule> rules;     // imports, then exports
    std::vector<ir::Asn> asns;           // the cone, then the RejectAll lists
    std::vector<std::uint32_t> plans;    // the RejectAll fold plans
    std::vector<const ir::FilterAsPath*> as_paths;
  };

  std::span<const CompiledRule> imports;  // declaration order
  std::span<const CompiledRule> exports;
  std::span<const ir::Asn> customer_cone;  // sorted; export-self relaxation
  bool only_provider = false;              // §5.1.2 only-provider-policies bit
  /// Import v4, import v6, export v4, export v6.
  std::array<RejectAll, 4> reject_all;
  /// Every AS-path filter in the rules, in compile order (the order of the
  /// persisted NFA section); empty for almost every aut-num.
  std::span<const ir::FilterAsPath* const> as_paths;
  std::shared_ptr<const Storage> storage;

  const RejectAll& reject_all_for(bool is_import, bool v4) const noexcept {
    return reject_all[(is_import ? 0 : 2) + (v4 ? 0 : 1)];
  }
};

/// Route objects: base prefix -> sorted unique origin ASNs, with the ASN
/// lists in a pool the table owns. Immutable once a snapshot holds it; the
/// next generation shares it when no route object was added or removed, and
/// otherwise copies it (one node-vector and one pool copy) and patches the
/// prefixes of the origin-changed ASes. A patch appends a changed list to
/// the pool and leaves the old one dead; the pool is compacted once the
/// dead entries outnumber the live ones.
class OriginTable {
 public:
  OriginTable() = default;
  /// From-scratch: one entry per distinct prefix of `keys` (any order,
  /// duplicates allowed).
  explicit OriginTable(std::vector<std::pair<net::Prefix, ir::Asn>> keys);

  /// Store `origins` (sorted unique) at `prefix`, replacing what it held.
  void insert(const net::Prefix& prefix, std::span<const ir::Asn> origins);
  /// Move `asn` from the prefixes in `before` to those in `after` (both
  /// sorted unique): the route keys of one AS in two generations.
  void patch(ir::Asn asn, std::span<const net::Prefix> before,
             std::span<const net::Prefix> after);

  /// The origins at exactly `prefix`; empty when none.
  std::span<const ir::Asn> exact(const net::Prefix& prefix) const {
    const Run* run = trie_.exact(prefix);
    return run == nullptr ? std::span<const ir::Asn>() : origins(*run);
  }
  /// PrefixTrie::for_each_cover over the origin lists.
  template <typename Visit>
  void for_each_cover(const net::Prefix& prefix, Visit visit) const {
    trie_.for_each_cover(prefix, [&](const net::Prefix& base, const Run& run) {
      return visit(base, origins(run));
    });
  }
  /// PrefixTrie::for_each over the origin lists: prefix order.
  template <typename Visit>
  void for_each(Visit visit) const {
    trie_.for_each([&](const net::Prefix& base, const Run& run) { visit(base, origins(run)); });
  }

  std::size_t node_count() const noexcept { return trie_.node_count(); }
  std::size_t node_slots() const noexcept { return trie_.node_slots(); }
  /// Pool entries that some prefix's list holds, and all of them.
  std::size_t live_origins() const noexcept { return live_; }
  std::size_t pool_size() const noexcept { return pool_.size(); }

 private:
  struct Run {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  std::span<const ir::Asn> origins(const Run& run) const noexcept {
    return {pool_.data() + run.offset, run.size};
  }
  void add(const net::Prefix& prefix, ir::Asn asn);
  void remove(const net::Prefix& prefix, ir::Asn asn);
  Run append(std::span<const ir::Asn> origins);

  net::PrefixTrie<Run> trie_;
  std::vector<ir::Asn> pool_;
  std::size_t live_ = 0;
};

/// What an incremental rebuild must recompile: the transitive closure of
/// everything whose compiled form can differ from the previous generation
/// after a journal batch. Computed by the delta pipeline (src/delta) from
/// the merged-object diff; anything NOT listed here is reused verbatim from
/// the previous snapshot, so an under-approximated dirty set is a
/// correctness bug (the differential-equivalence harness exists to catch
/// exactly that).
struct DirtySet {
  /// Conservative fallback: ignore every other field and rebuild from
  /// scratch (used by the `delta.dirty` failpoint and any change the dirty
  /// analysis cannot bound).
  bool everything = false;
  /// The (prefix, origin) route key set changed: the origin table is copied
  /// and patched for `origins_changed`; otherwise it is shared.
  bool routes_changed = false;
  /// Closed under reverse membership edges: a dirty as-set dirties every
  /// set that references it.
  std::set<std::string, util::ILess> as_sets;
  /// Closed under reverse route-set references, including kAsn members of
  /// origin-changed ASes and kAsSet members of dirty as-sets.
  std::set<std::string, util::ILess> route_sets;
  std::set<std::string, util::ILess> filter_sets;
  /// aut-num objects whose merged form changed. The compiler goes by rule
  /// lists instead: it carries an aut-num's piece exactly when its lists are
  /// the ones the piece was compiled from.
  std::set<ir::Asn> aut_nums;
  /// ASes whose route-object prefix set changed; sorted unique.
  std::vector<ir::Asn> origins_changed;

  std::size_t size() const noexcept {
    return as_sets.size() + route_sets.size() + filter_sets.size() + aut_nums.size() +
           origins_changed.size() + (routes_changed ? 1 : 0);
  }
};

/// What build_incremental() actually reused vs recompiled — surfaced
/// through `!stats`, rpslyzer_delta_* metrics, and the perf_delta gate.
struct IncrementalStats {
  bool full_rebuild = false;       // DirtySet::everything (or no previous)
  std::size_t as_sets_seeded = 0;  // flatten memo entries copied forward
  std::size_t route_sets_reused = 0;
  std::size_t route_sets_recompiled = 0;
  std::size_t regexes_reused = 0;      // NFA tables rehydrated from previous
  std::size_t regexes_recompiled = 0;  // Thompson constructions run
  std::size_t cones_reused = 0;
  /// Aut-nums whose rule lists are the previous generation's, carried
  /// forward whole (their compiled piece is the previous one).
  std::size_t aut_nums_reused = 0;
  /// Of those, the ones with no AS-path filter: no regex work at all.
  std::size_t aut_nums_skipped = 0;
  /// Of those, the ones whose regexes were rehydrated from their AS-path list.
  std::size_t aut_nums_rehydrated = 0;
};

/// Does `asn` only specify rules for its providers (§5.1.2)? The canonical
/// definition shared by the snapshot build and the interpreted Verifier so
/// the two paths cannot drift: a transit AS (nonempty customer set) with an
/// aut-num whose every import/export peering is a plain ASN, at least one
/// such remote, and every remote a provider of `asn`.
bool only_provider_policies(const irr::Index& index,
                            const relations::AsRelations& relations, ir::Asn asn);

/// Append the FilterAsPath nodes under a rule's entry to `out` in the visit
/// order of ir/walk.hpp (a term's factors in order, except and refine left
/// before right; inside a filter, and/or left before right, then not's
/// operand). An aut-num's `as_paths` is this walk over its imports then its
/// exports, and the persisted NFA section binds its images positionally to
/// as_path_order(), which is built from it.
void collect_as_paths(const ir::Entry& entry, std::vector<const ir::FilterAsPath*>& out);
/// The same walk over a filter-set's filter, then its mp-filter.
void collect_as_paths(const ir::FilterSet& set, std::vector<const ir::FilterAsPath*>& out);

class CompiledPolicySnapshot : public aspath::AsSetMembership {
 public:
  /// Build a snapshot. Forces index->prewarm() and relations->tier1() so
  /// every lazily-memoized structure is materialized before sharing; the
  /// returned object performs no mutation after this returns. Honors the
  /// `compile.build` failpoint (error kind throws std::runtime_error, which
  /// the server's reload path quarantines to the last good generation).
  static std::shared_ptr<const CompiledPolicySnapshot> build(
      std::shared_ptr<const irr::Index> index,
      std::shared_ptr<const relations::AsRelations> relations);

  /// Incremental rebuild after a journal batch: recompiles only what
  /// `dirty` names and reuses everything else from `previous` — clean
  /// as-set flattenings are seeded into the new index's memo (so prewarm
  /// only walks the dirty subgraph), clean route-set tries are copied
  /// forward, the origin table is shared or copied and patched, an aut-num
  /// whose rule lists and relation graph are unchanged keeps its compiled
  /// piece (its AS-path NFAs rehydrated from the previous tables instead of
  /// re-running Thompson construction), and customer cones are carried over
  /// whenever `relations` is the same object. The result must be observably byte-identical to
  /// build(index, relations) — the delta differential harness enforces
  /// this after every batch. dirty.everything falls back to build().
  static std::shared_ptr<const CompiledPolicySnapshot> build_incremental(
      std::shared_ptr<const irr::Index> index,
      std::shared_ptr<const relations::AsRelations> relations,
      const CompiledPolicySnapshot& previous, const DirtySet& dirty,
      IncrementalStats* stats = nullptr);

  const irr::Index& index() const noexcept { return *index_; }
  const relations::AsRelations& relations() const noexcept { return *relations_; }

  /// Monotone process-wide id for in-process builds; a snapshot restored
  /// from an arena file reports the id recorded at write time instead.
  std::uint64_t build_id() const noexcept { return build_id_; }
  std::size_t interned_symbols() const noexcept { return symbols_.size(); }
  /// Allocated nodes across the origin trie and every route-set trie.
  std::size_t trie_nodes() const noexcept { return trie_nodes_; }
  /// The route-object table behind origin_matches() and exact_origins().
  const OriginTable& origin_table() const noexcept { return *origins_; }
  /// Where this snapshot came from: "memory" for in-process builds,
  /// "file:<path>" / "cache:<key>" when restored from an arena file by the
  /// persistence layer. Surfaced through the server's `!stats`.
  const std::string& source() const noexcept { return source_; }

  // --- the verifier's corpus surface (mirrors the interpreted Index) ---
  /// nullptr when the as-set is not defined.
  const CompiledAsSet* flattened(std::string_view name) const;
  const ir::PeeringSet* peering_set(std::string_view name) const {
    return index_->peering_set(name);
  }
  const ir::FilterSet* filter_set(std::string_view name) const {
    return index_->filter_set(name);
  }

  // aspath::AsSetMembership (backed by the compiled tables, so regex
  // matching never touches the Index's lazy memo):
  bool contains(std::string_view as_set, ir::Asn asn) const override;
  bool is_known(std::string_view as_set) const override;

  irr::Lookup origin_matches(ir::Asn asn, const net::RangeOp& op,
                             const net::Prefix& p) const;
  irr::Lookup as_set_originates(std::string_view name, const net::RangeOp& op,
                                const net::Prefix& p) const;
  irr::Lookup route_set_matches(std::string_view name, const net::RangeOp& outer,
                                const net::Prefix& p) const;

  /// AS-path filter match through the precompiled NFA (falling back to the
  /// backtracking engine for unsupported constructs), with this snapshot as
  /// the set-membership oracle.
  aspath::RegexMatch match_as_path(const ir::FilterAsPath& filter,
                                   std::span<const ir::Asn> path, ir::Asn peer) const;
  /// Precomputed ir::uses_skipped_constructs for the paper-faithful skips.
  bool as_path_skipped(const ir::FilterAsPath& filter) const;
  /// Every AS-path filter in the persisted NFA section's order: each
  /// aut-num's `as_paths` in ascending ASN order, then the filter-set bodies
  /// (collect_as_paths) in name order.
  std::vector<const ir::FilterAsPath*> as_path_order() const;

  /// nullptr when no aut-num object exists for `asn`.
  const CompiledAutNum* compiled_aut_num(ir::Asn asn) const;

  /// Origin ASNs with a route object exactly at `prefix` (sorted); empty
  /// span when none. Drives the export-self relaxation without a cone loop.
  std::span<const ir::Asn> exact_origins(const net::Prefix& prefix) const;

 private:
  /// The persistence codec serializes the compiled tables into an arena
  /// file and reconstructs them (spans pointing into the mapping) without
  /// recompiling; it is the only writer besides build() itself.
  friend class rpslyzer::persist::SnapshotCodec;

  struct CompiledAsPath {
    aspath::CompiledRegex regex;
    bool skipped = false;  // ir::uses_skipped_constructs(filter.regex)
  };

  CompiledPolicySnapshot() = default;

  SymbolId intern(std::string_view name);
  std::optional<SymbolId> symbol(std::string_view name) const;
  // The build phases take an optional previous generation + dirty set; with
  // both null they are the from-scratch build() path, otherwise clean
  // structures are copied forward instead of recomputed.
  void build_as_sets();
  void build_origin_trie(const CompiledPolicySnapshot* previous = nullptr,
                         const DirtySet* dirty = nullptr);
  void build_route_sets(const CompiledPolicySnapshot* previous = nullptr,
                        const DirtySet* dirty = nullptr, IncrementalStats* stats = nullptr);
  void build_aut_nums(const CompiledPolicySnapshot* previous = nullptr,
                      const DirtySet* dirty = nullptr, IncrementalStats* stats = nullptr);
  /// Derives an aut-num's RejectAll entries from its compiled rules, right
  /// after they are compiled or restored (while they are still in cache).
  /// build_aut_nums and the persistence codec's restore are the two users;
  /// one builder's scratch serves every aut-num of a build.
  class RejectAllBuilder {
   public:
    /// Complete `can` from its filled `storage` (the rules of its lists,
    /// imports first, and its AS-path list): point its spans there, append
    /// its RejectAll entries to the block's `asns` and `plans`, and hand it
    /// the block. Nothing grows the block afterwards.
    void finish(CompiledAutNum& can, std::shared_ptr<CompiledAutNum::Storage> storage);

   private:
    struct Placed {
      std::size_t peers, asns, size;  // offsets into `asns`; both lists have `size` ASNs
      std::size_t plan, plan_size;    // offset into `plans`
    };
    /// One direction: fills the flags of `entries[0..1]` (v4, v6) and where
    /// their lists went.
    void derive(std::span<const CompiledRule> rules, std::vector<ir::Asn>& asns,
                std::vector<std::uint32_t>& plans, RejectAll* entries, Placed* placed);

    std::array<std::vector<ir::Asn>, 2> staged_;  // per family, rule order
    std::vector<ir::Asn> union_;                  // the staged ASNs, sorted unique
    std::vector<std::uint32_t> last_;  // by position in union_: latest plan entry
  };
  void compile_as_path(const ir::FilterAsPath& filter);
  /// Copy the NFA of `twin`, the same filter in `previous`, as `filter`'s;
  /// false (and nothing added) when `filter` has one or `twin` has no
  /// supported one.
  bool rehydrate(const ir::FilterAsPath& filter, const CompiledPolicySnapshot& previous,
                 const ir::FilterAsPath& twin);
  CompiledRule compile_rule(const ir::Rule& rule) const;
  /// A fresh piece for aut-num `asn`: its rules, their regexes, its cone
  /// (copied from `previous_cone` when given) and RejectAll entries.
  CompiledAutNum compile_aut_num(ir::Asn asn, const ir::AutNum& an,
                                 const CompiledAutNum* previous_cone,
                                 RejectAllBuilder& reject_all);

  std::shared_ptr<const irr::Index> index_;
  std::shared_ptr<const relations::AsRelations> relations_;
  std::uint64_t build_id_ = 0;
  std::size_t trie_nodes_ = 0;
  std::string source_ = "memory";

  // Interned set names: fold-mode flat table (one id per case-insensitive
  // class, first-seen spelling kept, ids dense from 0 in intern order) —
  // the same id assignment the old IHash-keyed map + name vector produced,
  // so the persisted symbol-section layout (id = position) is unchanged.
  // Reused capacity (not content) carries across build_incremental
  // generations via reserve(); content must be re-interned per generation
  // or deleted names would linger in the persisted symbols section.
  util::SymbolTable symbols_{util::SymbolTable::Mode::kCaseFold};

  std::unordered_map<SymbolId, CompiledAsSet> as_sets_;
  std::unordered_map<SymbolId, CompiledRouteSet> route_sets_;

  // Route objects: base prefix -> sorted unique origin ASNs.
  std::shared_ptr<const OriginTable> origins_;

  std::unordered_map<const ir::FilterAsPath*, CompiledAsPath> regexes_;
  std::unordered_map<ir::Asn, CompiledAutNum> aut_nums_;

  // Backing storage for the as-set and route-set spans above when the
  // snapshot is built in process. Each pool is reserved to its exact final
  // size before the first span into it is taken (vector growth would
  // invalidate them); an mmap-restored snapshot leaves the pools empty and
  // points the spans into the file mapping instead, whose lifetime the
  // persistence layer ties to this object via an aliasing shared_ptr.
  std::vector<ir::Asn> as_set_pool_;
  std::vector<LengthInterval> interval_pool_;
};

}  // namespace rpslyzer::compile
