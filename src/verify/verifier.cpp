#include "rpslyzer/verify/verifier.hpp"

#include <algorithm>
#include <optional>

#include "evaluate.hpp"
#include "rpslyzer/compile/snapshot.hpp"

namespace rpslyzer::verify {

namespace {

using internal::EvalClass;
using internal::RuleMerge;

}  // namespace

const char* to_string(CheckPath path) noexcept {
  switch (path) {
    case CheckPath::kMissingAutNum:
      return "missing_aut_num";
    case CheckPath::kZeroRules:
      return "zero_rules";
    case CheckPath::kRejectAll:
      return "reject_all";
    case CheckPath::kRuleLoop:
      return "rule_loop";
  }
  return "unknown";
}

Verifier::Verifier(const irr::Index& index, const relations::AsRelations& relations,
                   VerifyOptions options)
    : index_(&index), relations_(&relations), options_(options) {}

Verifier::Verifier(std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot,
                   VerifyOptions options)
    : snapshot_(std::move(snapshot)), options_(options) {}

const relations::AsRelations& Verifier::rels() const {
  return snapshot_ != nullptr ? snapshot_->relations() : *relations_;
}

bool Verifier::contains_origin(std::string_view as_set, Asn origin) const {
  return snapshot_ != nullptr ? snapshot_->contains(as_set, origin)
                              : index_->contains(as_set, origin);
}

bool Verifier::only_provider_policies(Asn asn) const {
  if (snapshot_ != nullptr) {
    const compile::CompiledAutNum* can = snapshot_->compiled_aut_num(asn);
    return can != nullptr && can->only_provider;
  }
  if (auto it = only_provider_cache_.find(asn); it != only_provider_cache_.end()) {
    return it->second;
  }
  const bool result = compile::only_provider_policies(*index_, *relations_, asn);
  only_provider_cache_.emplace(asn, result);
  return result;
}

bool Verifier::relax_export_self(Asn self, const net::Prefix& prefix) const {
  // Appendix C semantics: "announce <self>" is relaxed to also cover route
  // objects originated by the AS's customer cone.
  if (snapshot_ != nullptr) {
    const compile::CompiledAutNum* can = snapshot_->compiled_aut_num(self);
    if (can == nullptr) return false;  // check() guarantees an aut-num exists
    std::span<const Asn> exact = snapshot_->exact_origins(prefix);
    const auto& cone = can->customer_cone;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < exact.size() && j < cone.size()) {
      if (exact[i] == cone[j]) return true;
      if (exact[i] < cone[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return false;
  }
  auto it = cone_cache_.find(self);
  if (it == cone_cache_.end()) {
    it = cone_cache_.emplace(self, relations_->customer_cone(self)).first;
  }
  for (Asn member : it->second) {
    if (index_->origin_matches(member, net::RangeOp::none(), prefix) ==
        irr::Lookup::kMatch) {
      return true;
    }
  }
  return false;
}

CheckResult Verifier::classify(const RuleMerge& best, Asn self, Asn peer, bool is_import,
                               const bgp::Route& route) const {
  const std::span<const ReportItem> items = best.items();
  // A check's items, plus the reason a relaxation or safelist may add,
  // encoded in one pass (and without an allocation when they fit inline).
  auto result = [&](Status status, std::optional<Reason> extra = std::nullopt) {
    if (!extra) return CheckResult{status, ReportItems(items)};
    const ReportItem tail{*extra, 0, {}};
    return CheckResult{status, ReportItems(items, {&tail, 1})};
  };
  switch (best.cls()) {
    case EvalClass::kMatch:
      return {Status::kVerified, {}};
    case EvalClass::kSkip:
      return result(Status::kSkip);
    case EvalClass::kUnrecorded:
      return result(Status::kUnrecorded);
    default:
      break;
  }

  // §5.1.1 relaxed filters, in paper order, applicable when some rule's
  // peering matched but its filter did not.
  if (options_.relaxations && best.cls() == EvalClass::kNoMatchFilter) {
    const Asn origin = route.origin();
    bool has_self_filter = false;
    bool has_peer_filter = false;
    bool has_origin_filter = false;
    for (const auto& item : items) {
      if (item.reason == Reason::kMatchFilterAsNum) {
        has_self_filter = has_self_filter || item.asn == self;
        has_peer_filter = has_peer_filter || item.asn == peer;
        has_origin_filter = has_origin_filter || item.asn == origin;
      } else if (item.reason == Reason::kMatchFilterAsSet) {
        has_origin_filter = has_origin_filter || contains_origin(item.name, origin);
      }
    }
    // Export Self: a transit AS announcing "its own" routes almost always
    // means its routes and its customers' (validated by operators, App. E).
    if (!is_import && has_self_filter && relax_export_self(self, route.prefix)) {
      return result(Status::kRelaxed, Reason::kRelaxedExportSelf);
    }
    // Import Customer: "from C accept C" (or accept PeerAS) by C's provider
    // means "accept anything C sends".
    if (is_import && has_peer_filter && rels().is_provider_of(self, peer)) {
      return result(Status::kRelaxed, Reason::kRelaxedImportCustomer);
    }
    // Missing routes: the filter names the AS-path's origin (or a set
    // containing it) — the route object is simply not maintained.
    if (has_origin_filter) {
      return result(Status::kRelaxed, Reason::kRelaxedMissingRoutes);
    }
  }

  if (const std::optional<Reason> reason = safelist(self, peer, is_import)) {
    return result(Status::kSafelisted, *reason);
  }
  return result(Status::kUnverified);
}

std::optional<Reason> Verifier::safelist(Asn self, Asn peer, bool is_import) const {
  if (!options_.safelists) return std::nullopt;
  const relations::Relationship to_peer = rels().between(self, peer);
  // Only Provider Policies: ASes that maintain rules solely for their
  // providers (who may require them); imports from anyone that is not a
  // provider pass. Appendix C distinguishes known customers from other
  // non-provider remotes in the report items.
  if (is_import && to_peer != relations::Relationship::kCustomer &&
      only_provider_policies(self)) {
    return to_peer == relations::Relationship::kProvider
               ? Reason::kSpecCustomerOnlyProviderPolicies
               : Reason::kSpecOtherOnlyProviderPolicies;
  }
  // Tier-1 Peering: Tier-1s exchange routes by definition.
  if (rels().is_tier1(self) && rels().is_tier1(peer)) return Reason::kSpecTier1Pair;
  // Uphill: customers rely on providers to reach the Internet; providers
  // import customer routes.
  const bool uphill = is_import ? to_peer == relations::Relationship::kProvider
                                : to_peer == relations::Relationship::kCustomer;
  if (uphill) return Reason::kSpecUphill;
  return std::nullopt;
}

// Reads of `route` stay limited to route.prefix and route.origin(): see
// the purity invariant in verifier.hpp, which verify_routes_parallel's
// distinct-hop grouping relies on.
CheckResult Verifier::check(Asn self, Asn peer, bool is_import, const bgp::Route& route,
                            std::span<const Asn> announced_path, CheckPathCounts* paths) const {
  auto took = [paths](CheckPath path) {
    if (paths != nullptr) ++(*paths)[static_cast<std::size_t>(path)];
  };
  if (snapshot_ != nullptr) {
    // Unrecorded (1): no aut-num object for the AS under check.
    const compile::CompiledAutNum* can = snapshot_->compiled_aut_num(self);
    if (can == nullptr) {
      took(CheckPath::kMissingAutNum);
      return {Status::kUnrecorded, {{Reason::kUnrecordedAutNum, self, {}}}};
    }
    // Unrecorded (2): zero rules for the direction being checked.
    const auto& crules = is_import ? can->imports : can->exports;
    if (crules.empty()) {
      took(CheckPath::kZeroRules);
      return {Status::kUnrecorded, {{Reason::kUnrecordedNoRules, self, {}}}};
    }

    // No rule names the peer: every covering rule fast-rejects, and the
    // merged outcome of the loop below was fixed at build time. It is
    // NoMatchPeering (NotApplicable when no rule has factors, and then the
    // list is empty), so no relaxation applies; only a safelist can.
    const compile::RejectAll& reject = can->reject_all_for(is_import, route.prefix.is_v4());
    if (reject.simple &&
        !std::binary_search(reject.peers.begin(), reject.peers.end(), peer)) {
      took(CheckPath::kRejectAll);
      std::optional<ReportItem> tail;
      if (const std::optional<Reason> reason = safelist(self, peer, is_import)) {
        tail = ReportItem{*reason, 0, {}};
      }
      return {tail ? Status::kSafelisted : Status::kUnverified,
              ReportItems(reject.no_match_asns, tail)};
    }

    took(CheckPath::kRuleLoop);
    internal::EvalContextT<compile::CompiledPolicySnapshot> ctx{
        *snapshot_, options_, self, peer, route.prefix, announced_path, route.origin()};

    // A rule that does not cover the family, or has no factors, is
    // NotApplicable, which never changes the merge.
    RuleMerge best;
    std::size_t planned = 0;  // where the next simple rule's plan entries start
    for (const auto& crule : crules) {
      const bool covers = route.prefix.is_v4() ? crule.covers_v4 : crule.covers_v6;
      if (!covers) continue;
      if (crule.simple) {
        const std::size_t begin = planned;
        planned += crule.no_match_asns.size();
        if (!std::binary_search(crule.peers.begin(), crule.peers.end(), peer)) {
          // Fast reject: every peering is a plain ASN and none names the
          // peer, so no factor's filter is ever evaluated. Reproduces the
          // interpreted per-factor NoMatchPeering merge exactly.
          if (!crule.no_factors) {
            best.add_planned_misses(crule.no_match_asns, reject.plan, begin);
          }
          continue;
        }
        best.skip_planned(begin, planned);
      }
      best.add(internal::evaluate_rule(*crule.rule, ctx));
      if (best.cls() == EvalClass::kMatch) break;
    }
    return classify(best, self, peer, is_import, route);
  }

  // Unrecorded (1): no aut-num object for the AS under check.
  const ir::AutNum* an = index_->aut_num(self);
  if (an == nullptr) {
    took(CheckPath::kMissingAutNum);
    return {Status::kUnrecorded, {{Reason::kUnrecordedAutNum, self, {}}}};
  }
  // Unrecorded (2): zero rules for the direction being checked.
  const auto& rules = is_import ? an->imports : an->exports;
  if (rules.empty()) {
    took(CheckPath::kZeroRules);
    return {Status::kUnrecorded, {{Reason::kUnrecordedNoRules, self, {}}}};
  }
  took(CheckPath::kRuleLoop);

  internal::InterpretedCorpus corpus{*index_};
  internal::EvalContext ctx{corpus,         options_,       self, peer,
                            route.prefix,   announced_path, route.origin()};

  RuleMerge best;
  for (const auto& rule : rules) {
    best.add(internal::evaluate_rule(rule, ctx));
    if (best.cls() == EvalClass::kMatch) break;
  }
  return classify(best, self, peer, is_import, route);
}

CheckResult Verifier::check_export(Asn from, Asn to, const bgp::Route& route,
                                   std::span<const Asn> announced_path,
                                   CheckPathCounts* paths) const {
  return check(from, to, /*is_import=*/false, route, announced_path, paths);
}

CheckResult Verifier::check_import(Asn to, Asn from, const bgp::Route& route,
                                   std::span<const Asn> announced_path,
                                   CheckPathCounts* paths) const {
  return check(to, from, /*is_import=*/true, route, announced_path, paths);
}

std::vector<HopCheck> Verifier::verify_route(const bgp::Route& route) const {
  std::vector<HopCheck> hops;
  if (route.path.size() < 2) return hops;
  hops.reserve(route.path.size() - 1);
  // Walk from the origin toward the collector: pair (X = path[i+1] exports,
  // Y = path[i] imports); the path X announces is path[i+1..].
  for (std::size_t i = route.path.size() - 1; i-- > 0;) {
    const Asn exporter = route.path[i + 1];
    const Asn importer = route.path[i];
    std::span<const Asn> announced(route.path.data() + i + 1, route.path.size() - i - 1);
    HopCheck hop;
    hop.from = exporter;
    hop.to = importer;
    hop.export_result = check_export(exporter, importer, route, announced);
    hop.import_result = check_import(importer, exporter, route, announced);
    hops.push_back(std::move(hop));
  }
  return hops;
}

std::string Verifier::report(const bgp::Route& route) const {
  std::string out;
  for (const HopCheck& hop : verify_route(route)) out += to_report_lines(hop);
  return out;
}

}  // namespace rpslyzer::verify
