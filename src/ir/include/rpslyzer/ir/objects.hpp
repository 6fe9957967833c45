#pragma once
// RPSL object classes RPSLyzer models (§3): aut-num, as-set, route-set,
// peering-set, filter-set, and route/route6, plus the Ir container that
// aggregates a parsed corpus.

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "rpslyzer/ir/policy.hpp"
#include "rpslyzer/net/prefix_set.hpp"
#include "rpslyzer/util/interner.hpp"
#include "rpslyzer/util/shared_list.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::ir {

/// High-churn IR name fields (set names, maintainer references, sources)
/// are interned into the process-wide exact-mode symbol table instead of
/// carrying their own std::string: the same spelling always maps to the
/// same u32, so object copies, merges and equality checks stop touching
/// string bytes entirely. Exact ids preserve byte-level `operator==`
/// semantics; case-insensitive comparison goes through `canon`.
using Symbol = util::Symbol;

/// The process-wide table backing ir::Symbol.
inline util::SymbolTable& symbols() { return util::global_symbols(); }

/// Intern a spelling (idempotent, thread-safe).
inline Symbol sym(std::string_view s) { return symbols().intern(s); }

/// The interned spelling; valid for the process lifetime.
inline std::string_view sym_view(Symbol s) noexcept { return symbols().view(s); }

/// Owning copy of the spelling — the escape hatch that keeps JSON, wire
/// codecs and reports byte-identical to the std::string era.
inline std::string to_string(Symbol s) { return std::string(sym_view(s)); }

/// Case-insensitive symbol equality (RPSL names, RFC 2622 §2).
inline bool sym_iequals(Symbol a, Symbol b) noexcept {
  return symbols().canon(a) == symbols().canon(b);
}

/// Intern every element of a string list (parser helper).
inline std::vector<Symbol> sym_all(const std::vector<std::string>& v) {
  std::vector<Symbol> out;
  out.reserve(v.size());
  for (const auto& s : v) out.push_back(sym(s));
  return out;
}

/// An aut-num's import or export rules, immutable once built. Copies share
/// one vector, so the delta store, every generation's Ir and the undo log
/// hold a clean aut-num's rules once, and pointers into a list (compiled
/// rules, regex keys) stay valid while any copy lives. A list is never
/// mutated: an edit builds a new list.
using RuleList = util::SharedList<Rule>;

/// aut-num: an AS's policies. `imports`/`exports` hold every (mp-)import/
/// (mp-)export attribute in declaration order, which matters for reports.
struct AutNum {
  Asn asn = 0;
  Symbol as_name;                    // as-name attribute
  RuleList imports;
  RuleList exports;
  std::vector<Symbol> member_of;     // as-sets joined via mbrs-by-ref
  std::vector<Symbol> mnt_by;
  Symbol source;                     // IRR this definition was taken from

  friend bool operator==(const AutNum&, const AutNum&) = default;
};

/// One member of an as-set: a plain ASN, another set's name, or the
/// (erroneous but observed, §4) keyword ANY.
struct AsSetMember {
  enum class Kind : std::uint8_t { kAsn, kSet, kAny };
  Kind kind = Kind::kAsn;
  Asn asn = 0;
  Symbol name;

  static AsSetMember of_asn(Asn a) { return {Kind::kAsn, a, {}}; }
  static AsSetMember of_set(Symbol n) { return {Kind::kSet, 0, n}; }
  static AsSetMember any() { return {Kind::kAny, 0, {}}; }

  friend bool operator==(const AsSetMember&, const AsSetMember&) = default;
};

struct AsSet {
  Symbol name;
  std::vector<AsSetMember> members;
  std::vector<Symbol> mbrs_by_ref;  // maintainer names, or "ANY"
  std::vector<Symbol> mnt_by;
  Symbol source;

  friend bool operator==(const AsSet&, const AsSet&) = default;
};

/// One member of a route-set: an address prefix (with optional range op), or
/// a reference to a route-set / as-set / ASN, optionally with a range
/// operator applied to the whole referenced set, or RS-ANY/AS-ANY.
struct RouteSetMember {
  enum class Kind : std::uint8_t { kPrefix, kRouteSet, kAsSet, kAsn, kAny };
  Kind kind = Kind::kPrefix;
  net::PrefixRange prefix;  // kPrefix
  Symbol name;              // kRouteSet / kAsSet
  Asn asn = 0;              // kAsn
  net::RangeOp op;          // operator on the reference (kRouteSet/kAsSet/kAsn)

  friend bool operator==(const RouteSetMember&, const RouteSetMember&) = default;
};

struct RouteSet {
  Symbol name;
  std::vector<RouteSetMember> members;      // from members:
  std::vector<RouteSetMember> mp_members;   // from mp-members: (IPv6)
  std::vector<Symbol> mbrs_by_ref;
  std::vector<Symbol> mnt_by;
  Symbol source;

  friend bool operator==(const RouteSet&, const RouteSet&) = default;
};

struct PeeringSet {
  Symbol name;
  std::vector<Peering> peerings;     // peering: attributes
  std::vector<Peering> mp_peerings;  // mp-peering: attributes
  Symbol source;

  friend bool operator==(const PeeringSet&, const PeeringSet&) = default;
};

struct FilterSet {
  Symbol name;
  Filter filter;      // filter: attribute
  Filter mp_filter;   // mp-filter: attribute (FilterUnknown{} when absent)
  bool has_filter = false;
  bool has_mp_filter = false;
  Symbol source;

  friend bool operator==(const FilterSet&, const FilterSet&) = default;
};

/// route / route6: a prefix-origin registration.
struct RouteObject {
  net::Prefix prefix;
  Asn origin = 0;
  std::vector<Symbol> member_of;  // route-sets joined via mbrs-by-ref
  std::vector<Symbol> mnt_by;
  Symbol source;

  friend bool operator==(const RouteObject&, const RouteObject&) = default;
};

/// Case-insensitive name → object map (RPSL names are case-insensitive).
template <typename T>
using NameMap = std::map<std::string, T, util::ILess>;

/// The intermediate representation of a full corpus: every routing-related
/// object from one or more IRRs after merge. Mirrors the Rust `Ir` struct
/// the paper exports (§3, footnote 2).
struct Ir {
  std::map<Asn, AutNum> aut_nums;
  NameMap<AsSet> as_sets;
  NameMap<RouteSet> route_sets;
  NameMap<PeeringSet> peering_sets;
  NameMap<FilterSet> filter_sets;
  std::vector<RouteObject> routes;

  std::size_t object_count() const noexcept {
    return aut_nums.size() + as_sets.size() + route_sets.size() + peering_sets.size() +
           filter_sets.size() + routes.size();
  }

  friend bool operator==(const Ir&, const Ir&) = default;
};

/// RFC 2622 set-name validity: an as-set name is a colon-separated sequence
/// of components, at least one of which must start with "AS-"; the others
/// may be plain AS numbers (hierarchical names, e.g. "AS1:AS-CUSTOMERS").
bool valid_as_set_name(std::string_view name);

/// Same for route-sets with the "RS-" prefix.
bool valid_route_set_name(std::string_view name);

/// peering-set names use "PRNG-", filter-set names use "FLTR-".
bool valid_peering_set_name(std::string_view name);
bool valid_filter_set_name(std::string_view name);

/// Parse "AS1234" (case-insensitive) into an ASN.
std::optional<Asn> parse_as_ref(std::string_view text) noexcept;

}  // namespace rpslyzer::ir
