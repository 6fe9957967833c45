#include "rpslyzer/report/aggregate.hpp"

#include <algorithm>
#include <optional>

namespace rpslyzer::report {

std::size_t StatusCounts::total() const noexcept {
  std::size_t sum = 0;
  for (std::size_t c : counts) sum += c;
  return sum;
}

namespace {

template <typename Counts>
bool single_status_of(const Counts& counts, Status* which) noexcept {
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

}  // namespace

bool StatusCounts::single_status(Status* which) const noexcept {
  return single_status_of(counts, which);
}

void StatusCounts::merge(const StatusCounts& other) noexcept {
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
}

std::size_t RouteCounts::total() const noexcept {
  std::size_t sum = 0;
  for (std::uint32_t c : counts) sum += c;
  return sum;
}

bool RouteCounts::single_status(Status* which) const noexcept {
  return single_status_of(counts, which);
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

template <typename Key, typename Hash>
std::uint32_t Aggregator::FlatIndex<Key, Hash>::find_or_insert(const Key& key,
                                                              std::uint32_t fresh,
                                                              bool& inserted) {
  if (2 * (used_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Hash{}(key) & mask;
  while (slots_[i].row != kEmpty) {
    if (slots_[i].key == key) {
      inserted = false;
      return slots_[i].row;
    }
    i = (i + 1) & mask;
  }
  slots_[i] = {key, fresh};
  ++used_;
  inserted = true;
  return fresh;
}

template <typename Key, typename Hash>
void Aggregator::FlatIndex<Key, Hash>::grow() {
  std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.row == kEmpty) continue;
    std::size_t i = Hash{}(slot.key) & mask;
    while (slots_[i].row != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::uint32_t Aggregator::as_row(Asn asn) {
  bool inserted = false;
  const auto row =
      as_index_.find_or_insert(asn, static_cast<std::uint32_t>(as_rows_.size()), inserted);
  if (inserted) as_rows_.emplace_back().asn = asn;
  return row;
}

Aggregator::PairRow& Aggregator::pair_row(Asn from, Asn to) {
  bool inserted = false;
  const auto row = pair_index_.find_or_insert(
      {from, to}, static_cast<std::uint32_t>(pair_rows_.size()), inserted);
  if (inserted) {
    PairRow& fresh = pair_rows_.emplace_back();
    fresh.pair = {from, to};
    fresh.from_row = as_row(from);
    fresh.to_row = as_row(to);
  }
  return pair_rows_[row];
}

void Aggregator::add_check(AsRow& as, StatusCounts& pair, RouteCounts& route, bool is_import,
                           const verify::CheckResult& check) {
  ++total_checks_;
  (is_import ? as.imports : as.exports).add(check.status);
  pair.add(check.status);
  route.add(check.status);

  // Runs of unnamed MatchRemoteAsNum belong to no category and are no
  // filter reason: they are skipped whole, and a list that is one run is
  // not walked at all, so its heap block is never read.
  auto visit_items = [&](const auto& on_item) {
    if (!check.items.single_run()) check.items.visit([](std::span<const Asn>) {}, on_item);
  };
  if (check.status == Status::kUnrecorded) {
    as.unrecorded_seen = true;
    visit_items([&](const verify::ReportItem& item) {
      if (auto category = unrecorded_category(item.reason)) {
        ++as.unrecorded[static_cast<std::size_t>(*category)];
      }
    });
  } else if (check.status == Status::kRelaxed || check.status == Status::kSafelisted) {
    as.special_seen = true;
    visit_items([&](const verify::ReportItem& item) {
      if (auto category = special_category(item.reason)) {
        ++as.special[static_cast<std::size_t>(*category)];
      }
    });
  } else if (check.status == Status::kUnverified) {
    ++unverified_checks_;
    bool filter_involved = false;
    visit_items([&](const verify::ReportItem& item) {
      filter_involved = filter_involved || is_filter_reason(item.reason);
    });
    if (!filter_involved) ++unverified_peering_undeclared_;
  }
}

void Aggregator::add(const bgp::Route& route, const std::vector<verify::HopCheck>& hops) {
  (void)route;
  RouteCounts& counts = routes_.emplace_back();
  for (const auto& hop : hops) {
    PairRow& pair = pair_row(hop.from, hop.to);
    add_check(as_rows_[pair.from_row], pair.exports, counts, /*is_import=*/false,
              hop.export_result);
    add_check(as_rows_[pair.to_row], pair.imports, counts, /*is_import=*/true,
              hop.import_result);
  }
  // First hop = the origin-side pair, which is hops.front() (verify_route
  // emits origin side first).
  if (!hops.empty()) {
    first_hops_.add(hops.front().export_result.status);
    first_hops_.add(hops.front().import_result.status);
  }
}

PerAs Aggregator::as_imports() const {
  PerAs out;
  for (const AsRow& row : as_rows_) {
    if (row.imports.total() > 0) out.emplace(row.asn, row.imports);
  }
  return out;
}

PerAs Aggregator::as_exports() const {
  PerAs out;
  for (const AsRow& row : as_rows_) {
    if (row.exports.total() > 0) out.emplace(row.asn, row.exports);
  }
  return out;
}

PerAs Aggregator::as_combined() const {
  PerAs out;
  for (const AsRow& row : as_rows_) {
    StatusCounts combined = row.imports;
    combined.merge(row.exports);
    out.emplace(row.asn, combined);
  }
  return out;
}

PerPair Aggregator::pair_imports() const {
  PerPair out;
  for (const PairRow& row : pair_rows_) out.emplace(row.pair, row.imports);
  return out;
}

PerPair Aggregator::pair_exports() const {
  PerPair out;
  for (const PairRow& row : pair_rows_) out.emplace(row.pair, row.exports);
  return out;
}

UnrecordedPerAs Aggregator::unrecorded() const {
  UnrecordedPerAs out;
  for (const AsRow& row : as_rows_) {
    if (row.unrecorded_seen) out.emplace(row.asn, row.unrecorded);
  }
  return out;
}

SpecialPerAs Aggregator::special_cases() const {
  SpecialPerAs out;
  for (const AsRow& row : as_rows_) {
    if (row.special_seen) out.emplace(row.asn, row.special);
  }
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
  const PerPair imports = agg.pair_imports();
  const PerPair exports = agg.pair_exports();
  for (const auto& [pair, counts] : imports) {
    ++out.pairs_import;
    if (counts.single_status()) ++out.pairs_import_single_status;
    StatusCounts combined = counts;
    if (auto it = exports.find(pair); it != exports.end()) combined.merge(it->second);
    if (combined.of(Status::kUnverified) > 0) ++out.pairs_with_unverified;
  }
  for (const auto& [pair, counts] : exports) {
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
