#pragma once
// Verification statuses and report items (§5 and Appendix C).
//
// Each import/export check classifies into one of six statuses, applied in
// order: Verified ≻ Skip ≻ Unrecorded ≻ Relaxed ≻ Safelisted ≻ Unverified
// — "if there are multiple matches, the best rule with the earliest
// matching check is considered".

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
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
  friend class ReportItems;
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

/// The items of one check, stored compactly by value. A batch keeps
/// millions of checks, and most of their items are unnamed
/// MatchRemoteAsNum(asn): each maximal run of those is one header word plus
/// one word per ASN; any other item is three words (reason, ASN, name id).
/// An encoding of at most four words (any single item, or a run of up to
/// three ASNs) sits inline; a longer one takes one exactly sized heap block.
/// Runs are always maximal and the placement depends only on the length, so
/// the encoding is canonical and == compares words.
class ReportItems {
 public:
  class iterator;
  using const_iterator = iterator;
  using value_type = ReportItem;
  using size_type = std::size_t;

  ReportItems() noexcept = default;
  ReportItems(std::initializer_list<ReportItem> items)
      : ReportItems(std::span<const ReportItem>(items.begin(), items.size())) {}
  ReportItems(const std::vector<ReportItem>& items)
      : ReportItems(std::span<const ReportItem>(items)) {}
  /// The items of `head` then of `tail`, encoded in one exactly sized pass.
  explicit ReportItems(std::span<const ReportItem> head,
                       std::span<const ReportItem> tail = {});
  /// MatchRemoteAsNum(a) for each ASN of `run`, then `tail`: the run is
  /// copied as one block of words.
  ReportItems(std::span<const Asn> run, const std::optional<ReportItem>& tail);
  ReportItems(const ReportItems& other);
  ReportItems(ReportItems&& other) noexcept;
  ReportItems& operator=(ReportItems other) noexcept;
  ~ReportItems() {
    if (on_heap()) delete[] heap_;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Is the sequence exactly one run of unnamed MatchRemoteAsNum? Read off
  /// the lengths alone (one header word plus one word per item), without
  /// touching the encoding.
  bool single_run() const noexcept { return words_ == size_ + 1; }
  iterator begin() const noexcept;
  iterator end() const noexcept;
  /// Linear in `i`: the runs are walked from the front.
  ReportItem operator[](std::size_t i) const;
  ReportItem back() const { return (*this)[size_ - 1]; }
  /// Re-encodes the whole sequence, so it is linear; the verifier builds
  /// each sequence in one pass instead.
  void push_back(const ReportItem& item);

  /// Walks the encoding record by record, in order: `on_run` gets each
  /// maximal run of unnamed MatchRemoteAsNum as one span of ASNs, `on_item`
  /// every other item. A run costs O(1) to skip.
  template <typename OnRun, typename OnItem>
  void visit(OnRun&& on_run, OnItem&& on_item) const {
    const std::uint32_t* at = data();
    const std::uint32_t* const end = at + words_;
    while (at != end) {
      if ((*at & kRunTag) != 0) {
        const std::uint32_t count = *at & ~kRunTag;
        on_run(std::span<const Asn>(at + 1, count));
        at += 1 + count;
      } else {
        on_item(ReportItem{static_cast<Reason>(at[0]), at[1], name_of(at[2])});
        at += 3;
      }
    }
  }

  friend bool operator==(const ReportItems& a, const ReportItems& b) noexcept;

 private:
  static constexpr std::uint32_t kInlineWords = 4;
  static constexpr std::uint32_t kRunTag = 0x80000000u;  // header: tag | count

  bool on_heap() const noexcept { return words_ > kInlineWords; }
  // Adopt `other`'s encoding and leave it empty; the caller has released ours.
  void take(ReportItems& other) noexcept;
  const std::uint32_t* data() const noexcept { return on_heap() ? heap_ : inline_; }
  static ItemName name_of(std::uint32_t id) noexcept {
    ItemName name;
    name.id_ = id;
    return name;
  }

  std::uint32_t size_ = 0;   // items
  std::uint32_t words_ = 0;  // encoded length
  union {
    std::uint32_t inline_[kInlineWords] = {};
    std::uint32_t* heap_;
  };
};

/// Walks the encoding; dereferencing decodes one item by value.
class ReportItems::iterator {
 public:
  using iterator_concept = std::forward_iterator_tag;
  using iterator_category = std::input_iterator_tag;
  using value_type = ReportItem;
  using difference_type = std::ptrdiff_t;
  using reference = ReportItem;
  using pointer = void;

  iterator() noexcept = default;

  ReportItem operator*() const noexcept {
    if (run_left_ > 0) return {Reason::kMatchRemoteAsNum, *at_, {}};
    return {static_cast<Reason>(at_[0]), at_[1], name_of(at_[2])};
  }
  iterator& operator++() noexcept {
    if (run_left_ > 0) {
      ++at_;
      --run_left_;
    } else {
      at_ += 3;
    }
    if (run_left_ == 0) enter();
    return *this;
  }
  iterator operator++(int) noexcept {
    iterator old = *this;
    ++*this;
    return old;
  }
  friend bool operator==(const iterator& a, const iterator& b) noexcept {
    return a.at_ == b.at_ && a.run_left_ == b.run_left_;
  }

 private:
  friend class ReportItems;
  iterator(const std::uint32_t* at, const std::uint32_t* end) noexcept : at_(at), end_(end) {
    enter();
  }
  // Step into the record at `at_`: a run header moves on to its first ASN.
  void enter() noexcept {
    if (at_ != end_ && (*at_ & kRunTag) != 0) run_left_ = *at_++ & ~kRunTag;
  }

  const std::uint32_t* at_ = nullptr;
  const std::uint32_t* end_ = nullptr;
  std::uint32_t run_left_ = 0;  // ASNs left in the current run, this one included
};

inline ReportItems::iterator ReportItems::begin() const noexcept {
  return {data(), data() + words_};
}
inline ReportItems::iterator ReportItems::end() const noexcept {
  return {data() + words_, data() + words_};
}

/// The outcome of checking one import or export at one AS for one route.
struct CheckResult {
  Status status = Status::kUnverified;
  ReportItems items;
};

// A batch keeps one CheckResult per check, two per hop.
static_assert(sizeof(CheckResult) <= 32);

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
