#include "rpslyzer/ir/aspath_regex.hpp"

#include "rpslyzer/ir/walk.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::ir {

namespace {

using util::overloaded;

std::string item_to_string(const ReSetItem& item) {
  switch (item.kind) {
    case ReSetItem::Kind::kAsn:
      return "AS" + std::to_string(item.asn);
    case ReSetItem::Kind::kAsnRange:
      return "AS" + std::to_string(item.asn) + "-AS" + std::to_string(item.asn_hi);
    case ReSetItem::Kind::kAsSet:
      return item.as_set;
    case ReSetItem::Kind::kPeerAs:
      return "PeerAS";
  }
  return "";
}

std::string token_to_string(const ReToken& t) {
  switch (t.kind) {
    case ReToken::Kind::kAsn:
      return "AS" + std::to_string(t.asn);
    case ReToken::Kind::kAsSet:
      return t.as_set;
    case ReToken::Kind::kAny:
      return ".";
    case ReToken::Kind::kPeerAs:
      return "PeerAS";
    case ReToken::Kind::kSet: {
      std::string out = "[";
      if (t.complemented) out += "^";
      bool first = true;
      for (const auto& item : t.items) {
        if (!first) out += " ";
        first = false;
        out += item_to_string(item);
      }
      out += "]";
      return out;
    }
  }
  return "";
}

std::string repeat_to_string(const ReRepeat& r) {
  std::string tilde = r.same_pattern ? "~" : "";
  if (r.min == 0 && !r.max) return tilde + "*";
  if (r.min == 1 && !r.max) return tilde + "+";
  if (r.min == 0 && r.max && *r.max == 1) return tilde + "?";
  if (r.max && *r.max == r.min) return tilde + "{" + std::to_string(r.min) + "}";
  if (r.max) return tilde + "{" + std::to_string(r.min) + "," + std::to_string(*r.max) + "}";
  return tilde + "{" + std::to_string(r.min) + ",}";
}

/// True if rendering `node` under a postfix operator needs parentheses.
bool needs_group(const AsPathRegexNode& node) {
  return std::holds_alternative<ReConcat>(node.node) || std::holds_alternative<ReAlt>(node.node);
}

}  // namespace

bool uses_skipped_constructs(const AsPathRegex& regex) {
  return !for_each_as_path_node(*regex.root,
                                overloaded{
                                    [](const ReTokenNode& t) {
                                      if (t.token.kind != ReToken::Kind::kSet) return true;
                                      for (const ReSetItem& item : t.token.items) {
                                        if (item.kind == ReSetItem::Kind::kAsnRange) return false;
                                      }
                                      return true;
                                    },
                                    [](const ReRepeatNode& r) { return !r.repeat.same_pattern; },
                                    [](const auto&) { return true; },
                                });
}

std::string to_string(const AsPathRegexNode& node) {
  return std::visit(
      overloaded{
          [](const ReEmpty&) { return std::string(); },
          [](const ReBeginAnchor&) { return std::string("^"); },
          [](const ReEndAnchor&) { return std::string("$"); },
          [](const ReTokenNode& t) { return token_to_string(t.token); },
          [](const ReConcat& c) {
            std::string out;
            bool first = true;
            bool previous_was_begin_anchor = false;
            for (const auto& p : c.parts) {
              // Anchors glue to their neighbors: "^AS1 AS2$", not "^ AS1".
              const bool is_end_anchor = std::holds_alternative<ReEndAnchor>(p->node);
              if (!first && !previous_was_begin_anchor && !is_end_anchor) out += " ";
              first = false;
              previous_was_begin_anchor = std::holds_alternative<ReBeginAnchor>(p->node);
              if (std::holds_alternative<ReAlt>(p->node)) {
                out += "(" + to_string(*p) + ")";
              } else {
                out += to_string(*p);
              }
            }
            return out;
          },
          [](const ReAlt& a) {
            std::string out;
            bool first = true;
            for (const auto& o : a.options) {
              if (!first) out += "|";
              first = false;
              out += to_string(*o);
            }
            return out;
          },
          [](const ReRepeatNode& r) {
            std::string inner = to_string(*r.inner);
            if (needs_group(*r.inner)) inner = "(" + inner + ")";
            return inner + repeat_to_string(r.repeat);
          },
      },
      node.node);
}

std::string to_string(const AsPathRegex& regex) { return "<" + to_string(*regex.root) + ">"; }

}  // namespace rpslyzer::ir
