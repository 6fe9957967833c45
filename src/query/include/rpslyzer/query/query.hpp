#pragma once
// IRRd-style query evaluation over the compiled policy snapshot.
//
// IRRd (the de-facto IRR server software, [45] in the paper) answers
// terse "!" queries that tools like bgpq4 use to build router filters.
// Implementing the query surface on top of our index both demonstrates the
// IR's utility for "the development of new tools that analyze the RPSL"
// (§1) and provides the substrate bgpq4-style filter generation needs.
//
// Supported queries (IRRd 4 syntax):
//   !gAS<asn>        IPv4 prefixes originated by the AS (route objects)
//   !6AS<asn>        IPv6 prefixes originated by the AS (route6 objects)
//   !iAS-SET         direct members of an as-set or route-set
//   !iAS-SET,1       recursively flattened members
//   !aAS-SET         IPv4+IPv6 prefixes of every flattened member
//   !a4AS-SET / !a6AS-SET   family-restricted variant
//   !o<asn>          (extension) rule summary for an aut-num
//
// Responses follow the IRRd framing: "A<len>\n<data>\nC\n" on success with
// data, "C\n" for success without data, "D\n" for "key not found", and
// "F <error>\n" for malformed queries.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rpslyzer/compile/snapshot.hpp"

namespace rpslyzer::query {

/// Evaluates queries against one compiled snapshot. Stateless between
/// calls: set flattening reads the snapshot's immutable tables, so one
/// engine is safely shared across server workers.
class QueryEngine {
 public:
  explicit QueryEngine(const compile::CompiledPolicySnapshot& snapshot)
      : snapshot_(snapshot) {}

  /// Evaluate one query line (with or without the leading '!').
  /// Returns the full framed response, newline-terminated.
  std::string evaluate(std::string_view line) const;

 private:
  std::string origin_prefixes(std::string_view arg, bool v6) const;
  std::string set_members(std::string_view arg) const;
  std::string set_prefixes(std::string_view arg) const;
  std::string aut_num_summary(std::string_view arg) const;

  /// Flattened member ASNs of an as-set (sorted unique), or nullopt when
  /// the set is undefined; a span because the snapshot may be mmap-backed.
  std::optional<std::span<const ir::Asn>> flat_asns(std::string_view name) const;

  const irr::Index& index() const noexcept { return snapshot_.index(); }

  const compile::CompiledPolicySnapshot& snapshot_;
};

/// Wrap payload text in IRRd response framing ("A<len>\n...\nC\n").
std::string frame_response(std::string_view payload);

}  // namespace rpslyzer::query
