#include "rpslyzer/report/aggregate.hpp"

#include <algorithm>
#include <optional>

namespace rpslyzer::report {

std::size_t StatusCounts::total() const noexcept {
  std::size_t sum = 0;
  for (std::size_t c : counts) sum += c;
  return sum;
}

bool StatusCounts::single_status(Status* which) const noexcept {
  int found = -1;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (found >= 0) return false;
    found = static_cast<int>(i);
  }
  if (found < 0) return false;
  if (which != nullptr) *which = static_cast<Status>(found);
  return true;
}

void StatusCounts::merge(const StatusCounts& other) noexcept {
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
}

std::array<double, kStatusCount> StatusCounts::fractions() const noexcept {
  std::array<double, kStatusCount> out{};
  const std::size_t sum = total();
  if (sum == 0) return out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out[i] = static_cast<double>(counts[i]) / static_cast<double>(sum);
  }
  return out;
}

const char* to_string(UnrecordedCategory c) noexcept {
  switch (c) {
    case UnrecordedCategory::kMissingAutNum:
      return "missing aut-num";
    case UnrecordedCategory::kNoRules:
      return "zero rules";
    case UnrecordedCategory::kZeroRouteAs:
      return "zero-route AS";
    case UnrecordedCategory::kMissingSet:
      return "missing set object";
  }
  return "unknown";
}

const char* to_string(SpecialCategory c) noexcept {
  switch (c) {
    case SpecialCategory::kExportSelf:
      return "export self";
    case SpecialCategory::kImportCustomer:
      return "import customer";
    case SpecialCategory::kMissingRoutes:
      return "missing routes";
    case SpecialCategory::kOnlyProviderPolicies:
      return "only provider policies";
    case SpecialCategory::kTier1Pair:
      return "Tier-1 peering";
    case SpecialCategory::kUphill:
      return "uphill propagation";
  }
  return "unknown";
}

namespace {

std::optional<UnrecordedCategory> unrecorded_category(verify::Reason reason) {
  using verify::Reason;
  switch (reason) {
    case Reason::kUnrecordedAutNum:
      return UnrecordedCategory::kMissingAutNum;
    case Reason::kUnrecordedNoRules:
      return UnrecordedCategory::kNoRules;
    case Reason::kUnrecordedZeroRouteAs:
      return UnrecordedCategory::kZeroRouteAs;
    case Reason::kUnrecordedAsSet:
    case Reason::kUnrecordedRouteSet:
    case Reason::kUnrecordedPeeringSet:
    case Reason::kUnrecordedFilterSet:
      return UnrecordedCategory::kMissingSet;
    default:
      return std::nullopt;
  }
}

std::optional<SpecialCategory> special_category(verify::Reason reason) {
  using verify::Reason;
  switch (reason) {
    case Reason::kRelaxedExportSelf:
      return SpecialCategory::kExportSelf;
    case Reason::kRelaxedImportCustomer:
      return SpecialCategory::kImportCustomer;
    case Reason::kRelaxedMissingRoutes:
      return SpecialCategory::kMissingRoutes;
    case Reason::kSpecCustomerOnlyProviderPolicies:
    case Reason::kSpecOtherOnlyProviderPolicies:
      return SpecialCategory::kOnlyProviderPolicies;
    case Reason::kSpecTier1Pair:
      return SpecialCategory::kTier1Pair;
    case Reason::kSpecUphill:
      return SpecialCategory::kUphill;
    default:
      return std::nullopt;
  }
}

bool is_filter_reason(verify::Reason reason) {
  using verify::Reason;
  switch (reason) {
    case Reason::kMatchFilter:
    case Reason::kMatchFilterAsNum:
    case Reason::kMatchFilterAsSet:
    case Reason::kMatchFilterRouteSet:
    case Reason::kMatchFilterPrefixes:
    case Reason::kMatchFilterAsPath:
      return true;
    default:
      return false;
  }
}

}  // namespace

void Aggregator::add_check(Asn self, Asn from, Asn to, bool is_import,
                           const verify::CheckResult& check) {
  ++total_checks_;
  (is_import ? as_imports_[self] : as_exports_[self]).add(check.status);
  (is_import ? pair_imports_[{from, to}] : pair_exports_[{from, to}]).add(check.status);
  routes_.back().add(check.status);

  if (check.status == Status::kUnrecorded) {
    auto& categories = unrecorded_[self];
    for (const auto& item : check.items) {
      if (auto category = unrecorded_category(item.reason)) {
        ++categories[static_cast<std::size_t>(*category)];
      }
    }
  } else if (check.status == Status::kRelaxed || check.status == Status::kSafelisted) {
    auto& categories = special_[self];
    for (const auto& item : check.items) {
      if (auto category = special_category(item.reason)) {
        ++categories[static_cast<std::size_t>(*category)];
      }
    }
  } else if (check.status == Status::kUnverified) {
    ++unverified_checks_;
    const bool filter_involved =
        std::any_of(check.items.begin(), check.items.end(),
                    [](const verify::ReportItem& item) { return is_filter_reason(item.reason); });
    if (!filter_involved) ++unverified_peering_undeclared_;
  }
}

void Aggregator::add(const bgp::Route& route, const std::vector<verify::HopCheck>& hops) {
  (void)route;
  routes_.emplace_back();
  for (const auto& hop : hops) {
    add_check(hop.from, hop.from, hop.to, /*is_import=*/false, hop.export_result);
    add_check(hop.to, hop.from, hop.to, /*is_import=*/true, hop.import_result);
  }
  // First hop = the origin-side pair, which is hops.front() (verify_route
  // emits origin side first).
  if (!hops.empty()) {
    first_hops_.add(hops.front().export_result.status);
    first_hops_.add(hops.front().import_result.status);
  }
}

std::map<Asn, StatusCounts> Aggregator::as_combined() const {
  std::map<Asn, StatusCounts> out(as_imports_.begin(), as_imports_.end());
  for (const auto& [asn, counts] : as_exports_) out[asn].merge(counts);
  return out;
}

Fig2Summary Fig2Summary::compute(const Aggregator& agg) {
  Fig2Summary out;
  for (const auto& [asn, counts] : agg.as_combined()) {
    ++out.ases;
    Status which;
    if (counts.single_status(&which)) {
      ++out.all_same_status;
      switch (which) {
        case Status::kVerified:
          ++out.all_verified;
          break;
        case Status::kUnrecorded:
          ++out.all_unrecorded;
          break;
        case Status::kRelaxed:
          ++out.all_relaxed;
          break;
        case Status::kSafelisted:
          ++out.all_safelisted;
          break;
        default:
          break;
      }
    }
    if (counts.of(Status::kSkip) > 0) ++out.any_skip;
    if (counts.of(Status::kUnrecorded) > 0) ++out.any_unrecorded;
  }
  return out;
}

Fig3Summary Fig3Summary::compute(const Aggregator& agg) {
  Fig3Summary out;
  // Single-status fractions are per direction (the paper: "For imports, we
  // find 91.7% of AS pairs have a single consistent status; this number is
  // 92% for exports"), while "pairs with unverified routes" looks at both
  // the export and the import side of the pair.
  for (const auto& [pair, counts] : agg.pair_imports()) {
    ++out.pairs_import;
    if (counts.single_status()) ++out.pairs_import_single_status;
    StatusCounts combined = counts;
    if (auto it = agg.pair_exports().find(pair); it != agg.pair_exports().end()) {
      combined.merge(it->second);
    }
    if (combined.of(Status::kUnverified) > 0) ++out.pairs_with_unverified;
  }
  for (const auto& [pair, counts] : agg.pair_exports()) {
    ++out.pairs_export;
    if (counts.single_status()) ++out.pairs_export_single_status;
  }
  out.unverified_checks_total = agg.unverified_checks();
  out.unverified_checks_peering_undeclared = agg.unverified_peering_undeclared();
  return out;
}

Fig4Summary Fig4Summary::compute(const Aggregator& agg) {
  Fig4Summary out;
  for (const auto& counts : agg.routes()) {
    ++out.routes;
    Status which;
    if (counts.single_status(&which)) {
      ++out.single_status;
      if (which == Status::kVerified) ++out.single_verified;
      if (which == Status::kUnrecorded) ++out.single_unrecorded;
      if (which == Status::kUnverified) ++out.single_unverified;
    }
  }
  return out;
}

}  // namespace rpslyzer::report
