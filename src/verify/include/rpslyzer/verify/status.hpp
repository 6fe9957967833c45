#pragma once
// Verification statuses and report items (§5 and Appendix C).
//
// Each import/export check classifies into one of six statuses, applied in
// order: Verified ≻ Skip ≻ Unrecorded ≻ Relaxed ≻ Safelisted ≻ Unverified
// — "if there are multiple matches, the best rule with the earliest
// matching check is considered".

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rpslyzer/util/interner.hpp"

namespace rpslyzer::verify {

using Asn = std::uint32_t;

enum class Status : std::uint8_t {
  kVerified,    // a strict match
  kSkip,        // only unhandleable rules could have matched
  kUnrecorded,  // RPSL objects/rules missing from the IRRs
  kRelaxed,     // matched under a relaxed filter (§5.1.1)
  kSafelisted,  // explained by a safelisted relationship (§5.1.2)
  kUnverified,  // a mismatch
};

const char* to_string(Status s) noexcept;

/// Machine-readable explanation items, mirroring the report printout of
/// Appendix C (MatchRemoteAsNum, UnrecordedAsSet, SpecUphill, ...).
enum class Reason : std::uint8_t {
  // Mismatch explanations (Unverified / context for special cases).
  kMatchRemoteAsNum,    // a rule's peering names a different remote ASN
  kMatchRemoteAsSet,    // a rule's peering as-set lacks the remote AS
  kMatchRemotePeeringSet,  // a peering-set's peerings lack the remote AS
  kMatchFilter,         // peering matched, filter did not (generic)
  kMatchFilterAsNum,    // ... the filter was this ASN
  kMatchFilterAsSet,    // ... the filter was this as-set
  kMatchFilterRouteSet,
  kMatchFilterPrefixes,
  kMatchFilterAsPath,
  // Unrecorded reasons (Figure 5's categories).
  kUnrecordedAutNum,
  kUnrecordedNoRules,      // zero import (export) rules for the direction
  kUnrecordedAsSet,
  kUnrecordedRouteSet,
  kUnrecordedPeeringSet,
  kUnrecordedFilterSet,
  kUnrecordedZeroRouteAs,  // filter references an AS with no route objects
  // Relaxed filters (§5.1.1).
  kRelaxedExportSelf,
  kRelaxedImportCustomer,
  kRelaxedMissingRoutes,
  // Safelisted relationships (§5.1.2). The only-provider-policies case has
  // two flavors in the Appendix C reports: the remote is a known customer
  // (SpecCustomerOnlyProviderPolicies) or anything else that is not a
  // provider (SpecOtherOnlyProviderPolicies).
  kSpecCustomerOnlyProviderPolicies,
  kSpecOtherOnlyProviderPolicies,
  kSpecTier1Pair,
  kSpecUphill,
  // Skip reasons (Appendix B limitations).
  kSkipRegexConstruct,   // ASN range / same-pattern operator in a regex
  kSkipCommunityFilter,  // community(...) in a filter
  kSkipPrefixSetOp,      // inline prefix set followed by a range operator
  kSkipUnparsedFilter,   // filter text the parser could not interpret
};

const char* to_string(Reason r) noexcept;

/// A report item's set name: a 4-byte handle onto the process-wide exact
/// table util::global_symbols(). Spellings are interned on construction
/// and the table never frees, so a name outlives every index, snapshot and
/// verifier it came from. The empty name is id 0 and never touches the
/// table. Equality compares ids, which in the exact table is byte equality.
class ItemName {
 public:
  constexpr ItemName() noexcept = default;
  ItemName(std::string_view spelling)
      : id_(spelling.empty() ? 0 : util::global_symbols().intern(spelling).id) {}
  ItemName(const std::string& spelling) : ItemName(std::string_view(spelling)) {}
  ItemName(const char* spelling) : ItemName(std::string_view(spelling)) {}

  operator std::string_view() const noexcept {
    return id_ == 0 ? std::string_view() : util::global_symbols().view(util::Symbol{id_});
  }
  std::size_t size() const noexcept { return std::string_view(*this).size(); }
  bool empty() const noexcept { return id_ == 0; }
  std::uint32_t id() const noexcept { return id_; }

  friend bool operator==(const ItemName&, const ItemName&) noexcept = default;

 private:
  std::uint32_t id_ = 0;
};

struct ReportItem {
  Reason reason;
  Asn asn = 0;    // remote/filter ASN when applicable
  ItemName name;  // set name when applicable

  friend bool operator==(const ReportItem&, const ReportItem&) = default;
};

// A check keeps tens of items and a batch keeps tens of millions: the item
// stays a flat, trivially copyable 12 bytes.
static_assert(sizeof(ReportItem) == 12 && std::is_trivially_copyable_v<ReportItem>);

/// Render "MatchRemoteAsNum(58552)" / "UnrecordedAsSet(\"AS1299:...\")".
std::string to_string(const ReportItem& item);

/// The outcome of checking one import or export at one AS for one route.
struct CheckResult {
  Status status = Status::kUnverified;
  std::vector<ReportItem> items;
};

/// One AS-pair hop of a route: `from` exported, `to` imported.
struct HopCheck {
  Asn from = 0;
  Asn to = 0;
  CheckResult export_result;
  CheckResult import_result;
};

/// Render one hop like Appendix C ("OkImport { from: .., to: .. }",
/// "MehExport { from, to, items: [...] }", "BadImport", "UnrecExport").
std::string to_report_lines(const HopCheck& hop);

}  // namespace rpslyzer::verify
