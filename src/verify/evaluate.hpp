#pragma once
// Internal rule evaluation for the verifier: tri/four-state evaluation of
// peerings, filters, and (structured) policy entries against one route.
// Not installed; the public surface is verifier.hpp.
//
// Evaluation is templated over a Corpus — the oracle that answers set,
// route-object, and AS-path questions. Two corpora exist:
//
//  * InterpretedCorpus: a thin adapter over irr::Index. Lookups walk the
//    index's lazily-memoized structures and recompile AS-path NFAs per
//    call.
//  * compile::CompiledPolicySnapshot: everything pre-flattened and
//    pre-lowered at build time; all queries are pure reads.
//
// Both instantiations share this one source of truth for §5 semantics, so
// the two paths cannot drift; tests/compile_snapshot_test.cpp additionally
// asserts verdict-for-verdict equality on a synthesized corpus.

#include <span>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/verify/status.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer::verify::internal {

/// How far one rule got toward matching, ordered by §5 priority for
/// best-rule selection (earlier enumerator = better).
enum class EvalClass : std::uint8_t {
  kMatch,
  kSkip,            // an unhandleable construct prevented a verdict
  kUnrecorded,      // missing referenced objects prevented a verdict
  kNoMatchFilter,   // peering matched, filter did not
  kNoMatchPeering,  // peering did not cover the remote AS
  kNotApplicable,   // wrong address family
};

struct RuleOutcome {
  EvalClass cls = EvalClass::kNotApplicable;
  std::vector<ReportItem> items;
};

/// The interpreted corpus: evaluation directly against the IRR index, the
/// reference Verifier's backend.
struct InterpretedCorpus {
  const irr::Index& index;

  auto flattened(std::string_view name) const { return index.flattened(name); }
  auto peering_set(std::string_view name) const { return index.peering_set(name); }
  auto filter_set(std::string_view name) const { return index.filter_set(name); }
  bool is_known(std::string_view name) const { return index.is_known(name); }
  irr::Lookup origin_matches(ir::Asn asn, const net::RangeOp& op,
                             const net::Prefix& p) const {
    return index.origin_matches(asn, op, p);
  }
  irr::Lookup as_set_originates(std::string_view name, const net::RangeOp& op,
                                const net::Prefix& p) const {
    return index.as_set_originates(name, op, p);
  }
  irr::Lookup route_set_matches(std::string_view name, const net::RangeOp& op,
                                const net::Prefix& p) const {
    return index.route_set_matches(name, op, p);
  }
  aspath::RegexMatch match_as_path(const ir::FilterAsPath& filter,
                                   std::span<const Asn> path, Asn peer) const;
  bool as_path_skipped(const ir::FilterAsPath& filter) const;
};

/// Context shared by all evaluations of one check.
template <typename Corpus>
struct EvalContextT {
  const Corpus& corpus;
  const VerifyOptions& options;
  Asn self = 0;               // the AS whose rule is evaluated
  Asn peer = 0;               // the remote AS of the session
  net::Prefix prefix;         // the route's prefix P
  std::span<const Asn> path;  // announced AS path (peer side first)
  Asn origin = 0;             // last element of the full path
};

using EvalContext = EvalContextT<InterpretedCorpus>;

/// Evaluate one rule (a full import/export attribute) against the context.
template <typename Corpus>
RuleOutcome evaluate_rule(const ir::Rule& rule, const EvalContextT<Corpus>& ctx);

extern template RuleOutcome evaluate_rule<InterpretedCorpus>(
    const ir::Rule&, const EvalContextT<InterpretedCorpus>&);
extern template RuleOutcome evaluate_rule<compile::CompiledPolicySnapshot>(
    const ir::Rule&, const EvalContextT<compile::CompiledPolicySnapshot>&);

/// An order-preserving, duplicate-free item list. Membership is a linear
/// scan while the list is short and a probe into an open-addressing index
/// over the 12-byte items once it grows, so appending k items to n costs
/// O(n + k), not O(n·k). Storage is leased from a per-thread stack of
/// reused buffers, so a list allocates nothing once its thread is warm;
/// lists are scoped locals (the leases nest) and never move.
class ItemList {
 public:
  ItemList();
  ~ItemList();
  ItemList(const ItemList&) = delete;
  ItemList& operator=(const ItemList&) = delete;

  /// Replace the contents with `items` verbatim (duplicates kept).
  void assign(std::span<const ReportItem> items);
  /// Append each item not already present, in order.
  void append(std::span<const ReportItem> items);

  std::span<const ReportItem> items() const noexcept;
  /// An exactly sized copy.
  std::vector<ReportItem> to_vector() const;

 private:
  friend class RuleMerge;
  struct Buffers;
  Buffers* buf_;
};

/// Folds rule outcomes, in rule order, into the best one under §5
/// ordering. Mismatch explanations accumulate across rules (Appendix C
/// shows every rule's MatchRemoteAsNum):
///  * a tie, or a worse newcomer: when both are mismatches, the newcomer's
///    items are appended without duplicates; otherwise they are dropped;
///  * NoMatchFilter overtaking NoMatchPeering: the newcomer's items
///    verbatim, then the old items without duplicates;
///  * any other overtaking: the newcomer's items verbatim.
class RuleMerge {
 public:
  void add(EvalClass cls, std::span<const ReportItem> items);
  void add(const RuleOutcome& outcome) { add(outcome.cls, outcome.items); }

  /// A fast-rejected rule of the snapshot loop, whose distinct ASNs `asns`
  /// are the entries from `begin` on of its family's compile::RejectAll
  /// plan: the same fold as add() of NoMatchPeering with
  /// MatchRemoteAsNum(a) for each. An ASN an earlier fast-rejected rule
  /// pushed is found on the plan's chain of links without hashing; the list
  /// is searched only when an evaluated outcome may have pushed it. Every
  /// covering simple rule's range goes, in rule order, either here or to
  /// skip_planned().
  void add_planned_misses(std::span<const Asn> asns, std::span<const std::uint32_t> plan,
                          std::size_t begin);
  /// The range of a simple rule evaluated in full (its outcome goes to
  /// add()): prev chains walk past its entries.
  void skip_planned(std::size_t begin, std::size_t end);

  EvalClass cls() const noexcept { return cls_; }
  std::span<const ReportItem> items() const noexcept { return list_.items(); }
  RuleOutcome take() const { return {cls_, list_.to_vector()}; }

 private:
  EvalClass cls_ = EvalClass::kNotApplicable;
  ItemList list_;
};

}  // namespace rpslyzer::verify::internal
