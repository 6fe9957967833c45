#pragma once
// §5.2 result aggregation: "we report the verification statuses at three
// granularities: per AS, per AS pair, and per BGP route" (Figures 2-4),
// plus the unrecorded breakdown (Figure 5) and special-case breakdown
// (Figure 6).

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "rpslyzer/bgp/route.hpp"
#include "rpslyzer/util/rand.hpp"
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

/// One route's checks per status, for Figure 4. A route has two checks
/// per hop, so one status can reach twice the hop count: 32 bits each.
/// StatusCounts stays 64-bit because per-AS and per-pair totals pass 2^32
/// at the paper's scale.
struct RouteCounts {
  std::array<std::uint32_t, kStatusCount> counts{};

  void add(Status s) noexcept { ++counts[static_cast<std::size_t>(s)]; }
  std::size_t total() const noexcept;
  /// All checks share one status; that status (only valid if true).
  bool single_status(Status* which = nullptr) const noexcept;
};
static_assert(sizeof(RouteCounts) == 24);

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

/// Hash of a directed AS pair for a power-of-two table, which keeps only
/// the low bits: every bit mixes both ASNs.
struct AsnPairHash {
  std::size_t operator()(const AsnPair& pair) const noexcept {
    return static_cast<std::size_t>(
        util::mix64((std::uint64_t{pair.first} << 32) | pair.second));
  }
};

// The tables in key order. Each accessor builds its table from the flat
// rows on every call.
using PerAs = std::map<Asn, StatusCounts>;
using PerPair = std::map<AsnPair, StatusCounts>;
using UnrecordedPerAs = std::map<Asn, std::array<std::size_t, kUnrecordedCategoryCount>>;
using SpecialPerAs = std::map<Asn, std::array<std::size_t, kSpecialCategoryCount>>;

/// Streaming aggregator: feed each route's hop checks once.
///
/// One row per AS and one per directed AS pair behind open-addressing
/// indexes. A pair's row also holds the row numbers of its two ASes, so a
/// hop costs one probe; a hop's importer is the next hop's exporter, and
/// both hops reach that AS's row without a probe.
class Aggregator {
 public:
  void add(const bgp::Route& route, const std::vector<verify::HopCheck>& hops);

  // --- Figure 2: per AS, for the ASes with such checks ---
  PerAs as_imports() const;
  PerAs as_exports() const;
  /// Combined (imports + exports) per AS.
  PerAs as_combined() const;

  // --- Figure 3: per directed AS pair (from, to) ---
  PerPair pair_imports() const;
  PerPair pair_exports() const;

  // --- Figure 4: per route (all hops, both directions) ---
  const std::vector<RouteCounts>& routes() const noexcept { return routes_; }
  /// First-hop-only counts (the paper's route-leak discussion in §5.2).
  const StatusCounts& first_hops() const noexcept { return first_hops_; }

  // --- Figure 5: per AS with an Unrecorded check, its items per category ---
  UnrecordedPerAs unrecorded() const;

  // --- Figure 6: per AS with a Relaxed or Safelisted check, its items per category ---
  SpecialPerAs special_cases() const;

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
  struct AsRow {
    Asn asn = 0;
    bool unrecorded_seen = false;  // had an Unrecorded check
    bool special_seen = false;     // had a Relaxed or Safelisted check
    StatusCounts imports;
    StatusCounts exports;
    std::array<std::size_t, kUnrecordedCategoryCount> unrecorded{};
    std::array<std::size_t, kSpecialCategoryCount> special{};
  };
  struct PairRow {
    AsnPair pair;
    std::uint32_t from_row = 0;  // into as_rows_
    std::uint32_t to_row = 0;
    StatusCounts imports;
    StatusCounts exports;
  };

  /// Key → position of its row: linear probing at load at most 1/2.
  template <typename Key, typename Hash>
  class FlatIndex {
   public:
    /// The row of `key`; when absent, records `fresh` as its row.
    std::uint32_t find_or_insert(const Key& key, std::uint32_t fresh, bool& inserted);

   private:
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    struct Slot {
      Key key{};
      std::uint32_t row = kEmpty;
    };
    void grow();

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
  };
  struct AsnHash {
    std::size_t operator()(Asn asn) const noexcept {
      return static_cast<std::size_t>(util::mix64(asn));
    }
  };

  std::uint32_t as_row(Asn asn);
  PairRow& pair_row(Asn from, Asn to);
  void add_check(AsRow& as, StatusCounts& pair, RouteCounts& route, bool is_import,
                 const verify::CheckResult& check);

  // Deques: growing never copies the rows or holds two copies at once.
  FlatIndex<Asn, AsnHash> as_index_;
  std::deque<AsRow> as_rows_;
  FlatIndex<AsnPair, AsnPairHash> pair_index_;
  std::deque<PairRow> pair_rows_;
  std::vector<RouteCounts> routes_;
  StatusCounts first_hops_;
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
