#pragma once
// The route verification engine (§5).
//
// For each route <P, A> and each AS pair <Y, X> where Y imports the route
// X exported, RPSLyzer checks X's export rules and Y's import rules: a
// strict match requires (1) the remote AS to match the rule's peering and
// (2) the prefix and AS-path to match the rule's filter, with the rule
// covering P's address family. Non-matches classify into the §5 status
// lattice, with the §5.1.1 relaxed filters and §5.1.2 safelisted
// relationships applied in the paper's order.
//
// Two backends produce identical verdicts:
//
//  * snapshot: evaluation against an immutable
//    compile::CompiledPolicySnapshot. The Verifier holds no mutable state,
//    so one const instance is safely shared across threads. Every
//    evaluation path of the program uses it: Rpslyzer::verifier(),
//    verify_routes_parallel, the query server and the CLI.
//  * reference: direct evaluation against irr::Index +
//    relations::AsRelations with per-Verifier memo caches. No program path
//    selects it; tests, bench/perf_verify and the pipeline benchmark
//    construct it by name as the oracle the snapshot is checked against.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "rpslyzer/bgp/route.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/verify/status.hpp"

namespace rpslyzer::compile {
class CompiledPolicySnapshot;
}  // namespace rpslyzer::compile

namespace rpslyzer::verify {

namespace internal {
class RuleMerge;
}  // namespace internal

struct VerifyOptions {
  /// Apply the §5.1.1 relaxed-filter checks (export self, import customer,
  /// missing routes). Off = strict RFC semantics.
  bool relaxations = true;
  /// Apply the §5.1.2 safelists (only-provider-policies, Tier-1 pairs,
  /// uphill customer→provider propagation).
  bool safelists = true;
  /// Mirror the paper's skip list (Appendix B): AS-path regexes with ASN
  /// ranges or same-pattern operators, community filters, and inline
  /// prefix sets with range operators are Skipped. When false, constructs
  /// our engines can evaluate are evaluated instead (community filters
  /// remain skipped — communities are unobservable in collector dumps).
  bool paper_faithful_skips = true;
  /// Read by nothing: every evaluation path uses the snapshot backend, and
  /// the reference backend is chosen by constructing it. Kept only because
  /// the pipeline benchmark (pipebench/batch_verify.cpp) still assigns it;
  /// the change that replaces that benchmark's reference sample removes it.
  bool use_snapshot = true;
};

/// The way check() decided a check: no aut-num for the AS under check,
/// zero rules for the direction, the snapshot's reject-all fast path (no
/// rule names the peer), or the loop over the rules. Only the snapshot
/// backend has the reject-all path.
enum class CheckPath : std::uint8_t { kMissingAutNum, kZeroRules, kRejectAll, kRuleLoop };
inline constexpr std::size_t kCheckPathCount = 4;

/// "missing_aut_num", "zero_rules", "reject_all" or "rule_loop".
const char* to_string(CheckPath path) noexcept;

/// Checks per CheckPath, kept by one caller (a verify worker) without
/// atomics.
using CheckPathCounts = std::array<std::uint64_t, kCheckPathCount>;

class Verifier {
 public:
  /// Reference backend: evaluate directly against the index. Not shared
  /// across threads (its memo caches are mutable).
  Verifier(const irr::Index& index, const relations::AsRelations& relations,
           VerifyOptions options = {});

  /// Snapshot backend: evaluate against a compiled policy snapshot. The
  /// Verifier is then immutable and safely shared across threads.
  explicit Verifier(std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot,
                    VerifyOptions options = {});

  /// Check AS `from`'s export of `route` toward `to`. `announced_path` is
  /// the AS path as announced by `from` (from..origin, BGP order). When
  /// `paths` is given, the CheckPath taken is counted in it.
  CheckResult check_export(Asn from, Asn to, const bgp::Route& route,
                           std::span<const Asn> announced_path,
                           CheckPathCounts* paths = nullptr) const;

  /// Check AS `to`'s import of `route` from `from`.
  CheckResult check_import(Asn to, Asn from, const bgp::Route& route,
                           std::span<const Asn> announced_path,
                           CheckPathCounts* paths = nullptr) const;

  /// Verify every AS pair of the route, origin side first (Appendix C
  /// report order). Prepends must already be stripped (bgp::parse_* does).
  std::vector<HopCheck> verify_route(const bgp::Route& route) const;

  /// Appendix-C style multi-line report for one route.
  std::string report(const bgp::Route& route) const;

  const VerifyOptions& options() const noexcept { return options_; }

  /// The snapshot backing this verifier, or nullptr when interpreted.
  const compile::CompiledPolicySnapshot* snapshot() const noexcept {
    return snapshot_.get();
  }

  /// Does this AS only specify rules for its providers (§5.1.2)? Exposed
  /// for the report module (Figure 6's breakdown).
  bool only_provider_policies(Asn asn) const;

 private:
  /// One check. It must stay a pure function of (self, peer, is_import,
  /// route.prefix, announced_path): of the route it reads only the prefix
  /// and route.origin(), the announced path's last ASN.
  /// verify_routes_parallel checks each distinct (prefix, path suffix)
  /// once and copies the verdict to every route through it, so reading
  /// anything else of `route` breaks its results.
  CheckResult check(Asn self, Asn peer, bool is_import, const bgp::Route& route,
                    std::span<const Asn> announced_path, CheckPathCounts* paths) const;

  /// Shared tail of check(): §5 status from the merged rule outcomes, then
  /// the §5.1.1 relaxations and §5.1.2 safelists in paper order. Backend
  /// differences are confined to the small dispatch helpers below.
  CheckResult classify(const internal::RuleMerge& best, Asn self, Asn peer, bool is_import,
                       const bgp::Route& route) const;

  /// The §5.1.2 safelists in paper order: the reason of the first that
  /// explains the check, or nothing (also when safelists are off).
  std::optional<Reason> safelist(Asn self, Asn peer, bool is_import) const;

  bool relax_export_self(Asn self, const net::Prefix& prefix) const;
  bool contains_origin(std::string_view as_set, Asn origin) const;
  const relations::AsRelations& rels() const;

  // Interpreted backend (null in snapshot mode):
  const irr::Index* index_ = nullptr;
  const relations::AsRelations* relations_ = nullptr;
  // Snapshot backend (null in interpreted mode):
  std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot_;

  VerifyOptions options_;

  // Interpreted-only memo caches; the snapshot path never touches them
  // (the snapshot precomputes both at build time).
  mutable std::unordered_map<Asn, bool> only_provider_cache_;
  // Customer cones are only materialized for the export-self relaxation.
  mutable std::unordered_map<Asn, std::vector<relations::Asn>> cone_cache_;
};

}  // namespace rpslyzer::verify
