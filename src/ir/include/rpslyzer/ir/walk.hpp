#pragma once
// The one walk over policy trees: what does a rule name?
//
// The Table 2 census and shape counters (§4), the linter and the usage
// classifier (§7) and the snapshot compiler read rules through these
// templates; none of them recurses over a policy tree itself. Only the
// evaluator, the printers, the JSON and arena codecs, the RPSL parsers and
// the AS-path regex engines do, because they need the tree's shape and not
// just its leaves.
//
// Visit order (the persisted snapshot binds its AS-path NFAs to
// CompiledPolicySnapshot::as_path_order() by position, so this order is
// part of the snapshot format):
//   * binary nodes (except and refine, filter and/or, AS-expression
//     and/or/except) left before right; a filter NOT, its operand;
//   * a term's factors in order; in a factor, each peering in order, then
//     the filter;
//   * an AS-path regex's nodes in text order, each before its operands.
//
// A handler returns void (the walk goes on) or bool (false stops it); a
// walk returns false when a handler stopped it. No std::function, no
// allocation.

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "rpslyzer/ir/policy.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::ir {

/// Where a reference sits in a rule.
enum class Site : std::uint8_t {
  kPeering,  // a peering's AS expression, or its peering-set
  kFilter,   // a filter leaf
  kAsPath,   // a token of a filter's AS-path regex, [...] items included
};

/// ASNs and as-sets are the names that occur at all three sites; walk()
/// reports them as these two whatever node holds them.
struct AsnRef {
  Asn asn = 0;
};
struct AsSetRef {
  std::string_view name;
};

namespace walk_detail {

template <class F, class... Args>
bool call(F& f, const Args&... args) {
  if constexpr (std::is_void_v<std::invoke_result_t<F&, const Args&...>>) {
    f(args...);
    return true;
  } else {
    return static_cast<bool>(f(args...));
  }
}

}  // namespace walk_detail

/// `f(const Leaf&)` for each leaf of an Entry (its EntryTerms), a Filter
/// (every alternative but FilterAnd, FilterOr and FilterNot) or an AsExpr
/// (AsExprAsn, AsExprSet, AsExprAny).
template <class Tree, class F>
bool for_each_leaf(const Tree& tree, F&& f) {
  return std::visit(
      [&](const auto& node) {
        if constexpr (requires { node.left; node.right; }) {
          return for_each_leaf(*node.left, f) && for_each_leaf(*node.right, f);
        } else if constexpr (std::is_same_v<std::decay_t<decltype(node)>, FilterNot>) {
          return for_each_leaf(*node.inner, f);
        } else {
          return walk_detail::call(f, node);
        }
      },
      tree.node);
}

/// `f(const PolicyFactor&)` for each factor of `entry`.
template <class F>
bool for_each_factor(const Entry& entry, F&& f) {
  return for_each_leaf(entry, [&](const EntryTerm& term) {
    for (const PolicyFactor& factor : term.factors) {
      if (!walk_detail::call(f, factor)) return false;
    }
    return true;
  });
}

/// `f(const Node&)` for each node of an AS-path regex, a node before its
/// operands (concatenation parts and alternatives in order, a repetition's
/// operand).
template <class F>
bool for_each_as_path_node(const AsPathRegexNode& node, F&& f) {
  using walk_detail::call;
  const auto all = [&](const std::vector<AsPathRegexBox>& nodes) {
    for (const AsPathRegexBox& n : nodes) {
      if (!for_each_as_path_node(*n, f)) return false;
    }
    return true;
  };
  return std::visit(util::overloaded{
                        [&](const ReConcat& c) { return call(f, c) && all(c.parts); },
                        [&](const ReAlt& a) { return call(f, a) && all(a.options); },
                        [&](const ReRepeatNode& r) {
                          return call(f, r) && for_each_as_path_node(*r.inner, f);
                        },
                        [&](const auto& leaf) { return call(f, leaf); },  // token, empty, anchors
                    },
                    node.node);
}

/// `v(leaf, Site::kFilter)` for each leaf of `filter`, FilterAsNum and
/// FilterAsSet as AsnRef and AsSetRef. A FilterAsPath is reported, then the
/// ASNs and as-sets among its tokens at Site::kAsPath (ranges, '.' and
/// PeerAS name nothing).
template <class V>
bool walk(const Filter& filter, V&& v) {
  using walk_detail::call;
  const auto token = util::overloaded{
      [&](const ReTokenNode& node) {
        const ReToken& t = node.token;
        if (t.kind == ReToken::Kind::kAsn) return call(v, AsnRef{t.asn}, Site::kAsPath);
        if (t.kind == ReToken::Kind::kAsSet) return call(v, AsSetRef{t.as_set}, Site::kAsPath);
        if (t.kind != ReToken::Kind::kSet) return true;
        for (const ReSetItem& item : t.items) {
          const bool go = item.kind == ReSetItem::Kind::kAsn
                              ? call(v, AsnRef{item.asn}, Site::kAsPath)
                          : item.kind == ReSetItem::Kind::kAsSet
                              ? call(v, AsSetRef{item.as_set}, Site::kAsPath)
                              : true;
          if (!go) return false;
        }
        return true;
      },
      [](const auto&) { return true; },
  };
  return for_each_leaf(
      filter, util::overloaded{
                  [&](const FilterAsNum& f) { return call(v, AsnRef{f.asn}, Site::kFilter); },
                  [&](const FilterAsSet& f) { return call(v, AsSetRef{f.name}, Site::kFilter); },
                  [&](const FilterAsPath& f) {
                    return call(v, f, Site::kFilter) &&
                           for_each_as_path_node(*f.regex.root, token);
                  },
                  [&](const auto& leaf) { return call(v, leaf, Site::kFilter); },
              });
}

/// walk() over a factor: each peering's AS-expression leaves (AsExprAsn and
/// AsExprSet as AsnRef and AsSetRef) or its PeeringSetRef at
/// Site::kPeering, then walk(filter).
template <class V>
bool walk(const PolicyFactor& factor, V&& v) {
  using walk_detail::call;
  const auto leaf = util::overloaded{
      [&](const AsExprAsn& a) { return call(v, AsnRef{a.asn}, Site::kPeering); },
      [&](const AsExprSet& s) { return call(v, AsSetRef{s.name}, Site::kPeering); },
      [&](const AsExprAny& any) { return call(v, any, Site::kPeering); },
  };
  for (const PeeringAction& pa : factor.peerings) {
    const auto* spec = std::get_if<PeeringSpec>(&pa.peering.node);
    const bool go = spec != nullptr
                        ? for_each_leaf(spec->as_expr, leaf)
                        : call(v, std::get<PeeringSetRef>(pa.peering.node), Site::kPeering);
    if (!go) return false;
  }
  return walk(factor.filter, v);
}

/// walk() over every factor of `entry`.
template <class V>
bool walk(const Entry& entry, V&& v) {
  return for_each_factor(entry, [&](const PolicyFactor& factor) { return walk(factor, v); });
}

}  // namespace rpslyzer::ir
