#pragma once
// Mutable multi-source RPSL corpus behind the delta pipeline.
//
// The batch loader (irr::load_irrs) is a one-shot function from dump texts
// to a merged Ir; journals need the inverse view — a keyed, per-source
// object store that ADD/DEL operations mutate and that can re-materialize
// the exact Ir the loader would produce from the equivalent dump texts.
//
// The store keeps one SourceState per IRR in priority order, and each
// source one table: canonical *identity* ("aut-num:AS64500",
// "route:192.0.2.0/24:AS64500", ...) -> {canonical paragraph, parsed
// object}. Within a source there is exactly one object per identity
// (first-wins on initial load, upsert on ADD). The merged_* lookups
// resolve across sources in priority order exactly like irr::merge_into,
// from typed maps the store keeps up to date per touched key. Which merged
// map an object belongs in, and under which key, is derived from its
// parsed value by one visitor (visit_slot).
//
// init() reads the dumps with the loader's primitives: each dump is cut
// with rpsl::shard_objects, and the shards are lexed, parsed and rendered
// on a worker pool, each into a table of its own whose nodes then move
// into the source's table in dump order.
//
// Mutation is two-phase: prepare() validates a whole batch without touching
// anything; apply() mutates and returns an UndoLog — the inverse op of each
// applied op — that revert() applies backwards through the same path, so a
// failure *after* apply (dirty-set computation, compile) rolls the store
// back and the batch refuses atomically.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/ir/objects.hpp"
#include "rpslyzer/rpsl/object_parser.hpp"

namespace rpslyzer::delta {

/// One validated journal operation, ready to apply: afterwards source
/// `source_index` holds `object` under `identity` (ADD), or nothing (DEL).
struct PreparedOp {
  JournalOp::Kind kind = JournalOp::Kind::kAdd;
  std::uint64_t serial = 0;
  std::size_t source_index = 0;
  std::string identity;
  std::string text;  // canonical paragraph rendering (ADD only)
  /// The parsed paragraph: the ADD's value, or the DEL paragraph's parse,
  /// which names the key it deletes. monostate for unmodeled classes.
  rpsl::ParsedObject object;
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

  /// The ops that undo one apply(), in apply order; revert() applies them
  /// backwards.
  using UndoLog = std::vector<PreparedOp>;

  UndoLog apply(const std::vector<PreparedOp>& ops);
  void revert(UndoLog&& undo);

  // --- merged (priority-resolved) object views, O(log n) lookups ---
  const ir::AutNum* merged_aut_num(ir::Asn asn) const;
  const ir::AsSet* merged_as_set(std::string_view name) const;
  const ir::RouteSet* merged_route_set(std::string_view name) const;
  const ir::PeeringSet* merged_peering_set(std::string_view name) const;
  const ir::FilterSet* merged_filter_set(std::string_view name) const;
  const ir::RouteObject* merged_route(const std::pair<net::Prefix, ir::Asn>& key) const;
  /// The merged object under `keyed`'s class and key (its other fields are
  /// ignored), or monostate when no source holds one.
  rpsl::ParsedObject merged_object(const rpsl::ParsedObject& keyed) const;

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
  struct StoredObject {
    std::string text;                            // canonical paragraph
    std::unique_ptr<rpsl::ParsedObject> object;  // null for unmodeled classes
  };
  struct SourceState {
    std::string name;
    ir::NameMap<StoredObject> objects;  // identity -> object
  };
  /// The priority-merged view: the first source holding a key wins.
  struct MergedMaps {
    std::map<ir::Asn, ir::AutNum> aut_nums;
    ir::NameMap<ir::AsSet> as_sets;
    ir::NameMap<ir::RouteSet> route_sets;
    ir::NameMap<ir::PeeringSet> peering_sets;
    ir::NameMap<ir::FilterSet> filter_sets;
    std::map<std::pair<net::Prefix, ir::Asn>, ir::RouteObject> routes;
  };

  /// Calls fn(slot, class_name, key, value) for a modeled object: its map
  /// in MergedMaps (a member pointer), its identity's class prefix, its
  /// key there and its typed value. Does nothing for monostate.
  template <typename Fn>
  static void visit_slot(const rpsl::ParsedObject& object, Fn&& fn);
  /// "aut-num:AS64500", "route:192.0.2.0/24:AS64500", ...: the canonical
  /// key of a modeled object, else the raw class and key.
  static std::string identity_of(const rpsl::ParsedObject& object,
                                 const rpsl::RawObjectView& raw);
  /// Store `op` in (or erase it from) its source, re-resolve the merged
  /// key it touched, and return the op that undoes it.
  PreparedOp exchange(PreparedOp op);
  /// Re-resolve the merged key of `keyed` (stored under `identity`) across
  /// the sources after a mutation.
  void refresh(const std::string& identity, const rpsl::ParsedObject& keyed);

  std::vector<SourceState> sources_;
  /// init() builds it once; apply() and revert() refresh each key they
  /// touch, so lookups and materialize() never scan sources.
  MergedMaps merged_;
};

}  // namespace rpslyzer::delta
