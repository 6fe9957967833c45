#pragma once
// Mutable multi-source RPSL corpus behind the delta pipeline.
//
// The batch loader (irr::load_irrs) is a one-shot function from dump texts
// to a merged Ir; journals need the inverse view — a keyed, per-source
// object store that ADD/DEL operations mutate and that can re-materialize
// the exact Ir the loader would produce from the equivalent dump texts.
//
// The store keeps one SourceState per IRR in priority order. Each object
// lives under a canonical *identity* ("aut-num:AS64500",
// "route:192.0.2.0/24:AS64500", ...) alongside its canonical paragraph
// rendering; within a source there is exactly one object per identity
// (first-wins on initial load, upsert on ADD), and merged_* lookups resolve
// across sources in priority order exactly like irr::merge_into.
//
// Mutation is two-phase: prepare() validates a whole batch without touching
// anything; apply() mutates and returns an UndoLog that revert() replays
// backwards, so a failure *after* apply (dirty-set computation, compile)
// rolls the store back and the batch refuses atomically.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/ir/objects.hpp"
#include "rpslyzer/rpsl/object_parser.hpp"

namespace rpslyzer::delta {

/// Class of a stored object, for dirty-set bookkeeping. kOther covers
/// classes the IR does not model (person, mntner, ...): they live in the
/// text store only and never affect compiled semantics.
enum class ObjectClass : std::uint8_t {
  kAutNum,
  kAsSet,
  kRouteSet,
  kPeeringSet,
  kFilterSet,
  kRoute,
  kOther,
};

/// One validated journal operation, ready to apply.
struct PreparedOp {
  JournalOp::Kind kind = JournalOp::Kind::kAdd;
  std::uint64_t serial = 0;
  std::size_t source_index = 0;
  ObjectClass cls = ObjectClass::kOther;
  std::string identity;
  std::string text;           // canonical paragraph rendering (ADD only)
  rpsl::ParsedObject object;  // typed value (ADD only; monostate for kOther)
  ir::Asn asn = 0;                                // kAutNum
  std::string name;                               // set classes
  std::pair<net::Prefix, ir::Asn> route_key{};    // kRoute
};

class CorpusStore {
 public:
  /// Load initial dump texts, in priority order (name, text). Mirrors the
  /// loader: objects lex and parse with the same code, first definition of
  /// an identity within a source wins, diagnostics are discarded.
  void init(const std::vector<std::pair<std::string, std::string>>& dumps);

  std::size_t source_count() const noexcept { return sources_.size(); }
  const std::string& source_name(std::size_t i) const { return sources_[i].name; }
  std::optional<std::size_t> source_index(std::string_view name) const;

  /// Validate a batch without mutating. Ops with serial <= applied_serial
  /// are dropped (idempotent replay) and counted in *skipped. Refusal
  /// (unknown source, unusable paragraph) returns nullopt and fills *error.
  std::optional<std::vector<PreparedOp>> prepare(const JournalBatch& batch,
                                                 std::uint64_t applied_serial,
                                                 std::size_t* skipped,
                                                 std::string* error) const;

  /// Undo journal for one apply(); replay backwards to roll back.
  struct UndoEntry {
    std::size_t source_index = 0;
    ObjectClass cls = ObjectClass::kOther;
    std::string identity;
    std::optional<std::string> old_text;  // nullopt = identity was absent
    rpsl::ParsedObject old_object;        // typed value before the op
    ir::Asn asn = 0;
    std::string name;
    std::pair<net::Prefix, ir::Asn> route_key{};
  };
  using UndoLog = std::vector<UndoEntry>;

  UndoLog apply(const std::vector<PreparedOp>& ops);
  void revert(UndoLog&& undo);

  // --- merged (priority-resolved) object views, O(log n) lookups ---
  const ir::AutNum* merged_aut_num(ir::Asn asn) const;
  const ir::AsSet* merged_as_set(std::string_view name) const;
  const ir::RouteSet* merged_route_set(std::string_view name) const;
  const ir::PeeringSet* merged_peering_set(std::string_view name) const;
  const ir::FilterSet* merged_filter_set(std::string_view name) const;
  const ir::RouteObject* merged_route(const std::pair<net::Prefix, ir::Asn>& key) const;

  /// The merged view as one Ir: irr::merge_into semantics, and equal to
  /// what irr loading of source_texts() produces up to route vector order
  /// (which no consumer observes — the Index re-sorts per origin). Copies
  /// the merged maps only; an aut-num's rule lists are shared, not copied.
  ir::Ir materialize() const;

  /// Canonical dump text per source, identity-ordered paragraphs separated
  /// by blank lines. Loading these with the batch loader reproduces the
  /// store's semantics — the differential harness compiles them from
  /// scratch as the reference side.
  std::vector<std::pair<std::string, std::string>> source_texts() const;

  std::size_t object_count() const noexcept;

 private:
  struct SourceState {
    std::string name;
    std::map<ir::Asn, ir::AutNum> aut_nums;
    ir::NameMap<ir::AsSet> as_sets;
    ir::NameMap<ir::RouteSet> route_sets;
    ir::NameMap<ir::PeeringSet> peering_sets;
    ir::NameMap<ir::FilterSet> filter_sets;
    std::map<std::pair<net::Prefix, ir::Asn>, ir::RouteObject> routes;
    ir::NameMap<std::string> texts;  // identity -> canonical paragraph
  };

  void store_object(SourceState& src, const PreparedOp& op);
  void erase_object(SourceState& src, const PreparedOp& op);
  /// Re-resolve one key of `merged_` across the sources after a mutation.
  template <typename Map, typename Key>
  void refresh(Map SourceState::*objects, const Key& key);
  void refresh_merged(const PreparedOp& op);

  std::vector<SourceState> sources_;
  /// The priority-merged view (first source holding a key wins; `name` and
  /// `texts` unused). init() builds it once; apply() and revert() refresh
  /// each key they touch, so lookups and materialize() never scan sources.
  SourceState merged_;
};

}  // namespace rpslyzer::delta
