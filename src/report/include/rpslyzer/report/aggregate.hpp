#pragma once
// §5.2 result aggregation: "we report the verification statuses at three
// granularities: per AS, per AS pair, and per BGP route" (Figures 2-4),
// plus the unrecorded breakdown (Figure 5) and special-case breakdown
// (Figure 6).

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rpslyzer/bgp/route.hpp"
#include "rpslyzer/verify/status.hpp"

namespace rpslyzer::report {

using verify::Asn;
using verify::Status;

inline constexpr std::size_t kStatusCount = 6;

/// Counts of checks per status.
struct StatusCounts {
  std::array<std::size_t, kStatusCount> counts{};

  void add(Status s) noexcept { ++counts[static_cast<std::size_t>(s)]; }
  std::size_t of(Status s) const noexcept { return counts[static_cast<std::size_t>(s)]; }
  std::size_t total() const noexcept;
  /// All checks share one status; that status (only valid if true).
  bool single_status(Status* which = nullptr) const noexcept;
  void merge(const StatusCounts& other) noexcept;
  /// Fractions in status-lattice order; zeros when empty.
  std::array<double, kStatusCount> fractions() const noexcept;
};

/// Figure 5's unrecorded categories.
enum class UnrecordedCategory : std::uint8_t {
  kMissingAutNum,
  kNoRules,
  kZeroRouteAs,
  kMissingSet,  // as-set / route-set / peering-set / filter-set
};
inline constexpr std::size_t kUnrecordedCategoryCount = 4;
const char* to_string(UnrecordedCategory c) noexcept;

/// Figure 6's special-case categories.
enum class SpecialCategory : std::uint8_t {
  kExportSelf,
  kImportCustomer,
  kMissingRoutes,
  kOnlyProviderPolicies,
  kTier1Pair,
  kUphill,
};
inline constexpr std::size_t kSpecialCategoryCount = 6;
const char* to_string(SpecialCategory c) noexcept;

using AsnPair = std::pair<Asn, Asn>;

struct AsnPairHash {
  std::size_t operator()(const AsnPair& pair) const noexcept {
    const std::uint64_t key = (std::uint64_t{pair.first} << 32) | pair.second;
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 16);
  }
};

// The aggregation tables are hashed: iteration order is unspecified, so a
// consumer whose output depends on it sorts first (sorted_entries).
using PerAs = std::unordered_map<Asn, StatusCounts>;
using PerPair = std::unordered_map<AsnPair, StatusCounts, AsnPairHash>;
using UnrecordedPerAs = std::unordered_map<Asn, std::array<std::size_t, kUnrecordedCategoryCount>>;
using SpecialPerAs = std::unordered_map<Asn, std::array<std::size_t, kSpecialCategoryCount>>;

/// A hashed table's entries in key order.
template <typename Table>
std::vector<const typename Table::value_type*> sorted_entries(const Table& table) {
  std::vector<const typename Table::value_type*> out;
  out.reserve(table.size());
  for (const auto& entry : table) out.push_back(&entry);
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

/// Streaming aggregator: feed each route's hop checks once.
class Aggregator {
 public:
  void add(const bgp::Route& route, const std::vector<verify::HopCheck>& hops);

  // --- Figure 2: per AS ---
  const PerAs& as_imports() const noexcept { return as_imports_; }
  const PerAs& as_exports() const noexcept { return as_exports_; }
  /// Combined (imports + exports) per AS, in ASN order.
  std::map<Asn, StatusCounts> as_combined() const;

  // --- Figure 3: per directed AS pair (from, to) ---
  const PerPair& pair_imports() const noexcept { return pair_imports_; }
  const PerPair& pair_exports() const noexcept { return pair_exports_; }

  // --- Figure 4: per route (all hops, both directions) ---
  const std::vector<StatusCounts>& routes() const noexcept { return routes_; }
  /// First-hop-only counts (the paper's route-leak discussion in §5.2).
  const StatusCounts& first_hops() const noexcept { return first_hops_; }

  // --- Figure 5: per AS, which unrecorded categories appeared ---
  const UnrecordedPerAs& unrecorded() const noexcept { return unrecorded_; }

  // --- Figure 6: per AS, which special cases appeared ---
  const SpecialPerAs& special_cases() const noexcept { return special_; }

  std::size_t total_checks() const noexcept { return total_checks_; }
  std::size_t total_routes() const noexcept { return routes_.size(); }

  /// Unverified checks whose items show no filter involvement — the
  /// relationship itself is undeclared ("no rules' peering covers the
  /// other AS", the paper's 98.98%).
  std::size_t unverified_checks() const noexcept { return unverified_checks_; }
  std::size_t unverified_peering_undeclared() const noexcept {
    return unverified_peering_undeclared_;
  }

 private:
  void add_check(Asn self, Asn from, Asn to, bool is_import,
                 const verify::CheckResult& check);

  PerAs as_imports_;
  PerAs as_exports_;
  PerPair pair_imports_;
  PerPair pair_exports_;
  std::vector<StatusCounts> routes_;
  StatusCounts first_hops_;
  UnrecordedPerAs unrecorded_;
  SpecialPerAs special_;
  std::size_t total_checks_ = 0;
  std::size_t unverified_checks_ = 0;
  std::size_t unverified_peering_undeclared_ = 0;
};

/// Prose-level summaries matching the paper's §5.2 claims.
struct Fig2Summary {
  std::size_t ases = 0;
  std::size_t all_same_status = 0;     // paper: 74.4%
  std::size_t all_verified = 0;        // paper: 14.2%
  std::size_t all_unrecorded = 0;      // paper: 51.6%
  std::size_t all_relaxed = 0;         // paper: 0.34%
  std::size_t all_safelisted = 0;      // paper: 6.9%
  std::size_t any_skip = 0;            // paper: 0.03%
  std::size_t any_unrecorded = 0;      // paper: 54.9%

  static Fig2Summary compute(const Aggregator& agg);
};

struct Fig3Summary {
  std::size_t pairs_import = 0;
  std::size_t pairs_import_single_status = 0;  // paper: 91.7%
  std::size_t pairs_export = 0;
  std::size_t pairs_export_single_status = 0;  // paper: 92%
  std::size_t pairs_with_unverified = 0;       // paper: 63.0% (of all pairs)
  std::size_t unverified_checks_peering_undeclared = 0;  // paper: 98.98%
  std::size_t unverified_checks_total = 0;

  static Fig3Summary compute(const Aggregator& agg);
};

struct Fig4Summary {
  std::size_t routes = 0;
  std::size_t single_status = 0;     // paper: 6.6%
  std::size_t single_verified = 0;   // paper: 1.6%
  std::size_t single_unrecorded = 0;  // paper: 3.0%
  std::size_t single_unverified = 0;  // paper: 1.6%

  static Fig4Summary compute(const Aggregator& agg);
};

}  // namespace rpslyzer::report
