#include "rpslyzer/ir/json_io.hpp"

#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::ir {

namespace {

using json::Array;
using json::JsonError;
using json::Object;
using json::Value;
using util::overloaded;

Value strings_to_json(const std::vector<std::string>& v) {
  Array a;
  a.reserve(v.size());
  for (const auto& s : v) a.emplace_back(s);
  return Value(std::move(a));
}

std::vector<std::string> strings_from_json(const Value& v) {
  std::vector<std::string> out;
  for (const auto& e : v.as_array()) out.push_back(e.as_string());
  return out;
}

/// Symbol lists serialize exactly like the std::string lists they replaced:
/// the exact interned spelling, in order.
Value symbols_to_json(const std::vector<Symbol>& v) {
  Array a;
  a.reserve(v.size());
  for (const Symbol s : v) a.emplace_back(std::string(sym_view(s)));
  return Value(std::move(a));
}

std::vector<Symbol> symbols_from_json(const Value& v) {
  std::vector<Symbol> out;
  for (const auto& e : v.as_array()) out.push_back(sym(e.as_string()));
  return out;
}

Value range_op_to_json(const net::RangeOp& op) {
  // Compact text encoding: "", "-", "+", "n", "n-m".
  switch (op.kind) {
    case net::RangeOp::Kind::kNone:
      return Value("");
    case net::RangeOp::Kind::kMinus:
      return Value("-");
    case net::RangeOp::Kind::kPlus:
      return Value("+");
    case net::RangeOp::Kind::kExact:
      return Value(std::to_string(op.n));
    case net::RangeOp::Kind::kRange:
      return Value(std::to_string(op.n) + "-" + std::to_string(op.m));
  }
  return Value("");
}

net::RangeOp range_op_from_json(const Value& v) {
  const std::string& s = v.as_string();
  if (s.empty()) return net::RangeOp::none();
  auto parsed = net::RangeOp::parse(s);
  if (!parsed) throw JsonError("bad range op: " + s);
  return *parsed;
}

Value prefix_range_to_json(const net::PrefixRange& r) {
  Object o;
  o["prefix"] = Value(r.prefix.to_string());
  o["op"] = range_op_to_json(r.op);
  return Value(std::move(o));
}

net::PrefixRange prefix_range_from_json(const Value& v) {
  auto prefix = net::Prefix::parse(v.at("prefix").as_string());
  if (!prefix) throw JsonError("bad prefix: " + v.at("prefix").as_string());
  return net::PrefixRange{*prefix, range_op_from_json(v.at("op"))};
}

Value tagged(std::string_view type) {
  Object o;
  o["type"] = Value(type);
  return Value(std::move(o));
}

}  // namespace

// ---------------------------------------------------------------------------
// Afi
// ---------------------------------------------------------------------------

json::Value to_json(const Afi& v) { return Value(v.to_string()); }

Afi afi_from_json(const Value& v) {
  const std::string& s = v.as_string();
  Afi afi;
  auto dot = s.find('.');
  std::string_view ip = dot == std::string::npos ? std::string_view(s)
                                                 : std::string_view(s).substr(0, dot);
  if (util::iequals(ip, "any")) {
    afi.ip = Afi::Ip::kAny;
  } else if (util::iequals(ip, "ipv4")) {
    afi.ip = Afi::Ip::kIpv4;
  } else if (util::iequals(ip, "ipv6")) {
    afi.ip = Afi::Ip::kIpv6;
  } else {
    throw JsonError("bad afi: " + s);
  }
  if (dot != std::string::npos) {
    std::string_view cast = std::string_view(s).substr(dot + 1);
    if (util::iequals(cast, "unicast")) {
      afi.cast = Afi::Cast::kUnicast;
    } else if (util::iequals(cast, "multicast")) {
      afi.cast = Afi::Cast::kMulticast;
    } else if (util::iequals(cast, "any")) {
      afi.cast = Afi::Cast::kAny;
    } else {
      throw JsonError("bad afi cast: " + s);
    }
  }
  return afi;
}

// ---------------------------------------------------------------------------
// AsExpr / Peering
// ---------------------------------------------------------------------------

json::Value to_json(const AsExpr& v) {
  return std::visit(
      overloaded{
          [](const AsExprAsn& a) {
            Value o = tagged("asn");
            o["asn"] = Value(std::uint64_t{a.asn});
            return o;
          },
          [](const AsExprSet& s) {
            Value o = tagged("as-set");
            o["name"] = Value(s.name);
            return o;
          },
          [](const AsExprAny&) { return tagged("any"); },
          [](const AsExprAnd& n) {
            Value o = tagged("and");
            o["left"] = to_json(*n.left);
            o["right"] = to_json(*n.right);
            return o;
          },
          [](const AsExprOr& n) {
            Value o = tagged("or");
            o["left"] = to_json(*n.left);
            o["right"] = to_json(*n.right);
            return o;
          },
          [](const AsExprExcept& n) {
            Value o = tagged("except");
            o["left"] = to_json(*n.left);
            o["right"] = to_json(*n.right);
            return o;
          },
      },
      v.node);
}

AsExpr as_expr_from_json(const Value& v) {
  const std::string& type = v.at("type").as_string();
  if (type == "asn") return {AsExprAsn{static_cast<Asn>(v.at("asn").as_int())}};
  if (type == "as-set") return {AsExprSet{v.at("name").as_string()}};
  if (type == "any") return {AsExprAny{}};
  if (type == "and")
    return {AsExprAnd{as_expr_from_json(v.at("left")), as_expr_from_json(v.at("right"))}};
  if (type == "or")
    return {AsExprOr{as_expr_from_json(v.at("left")), as_expr_from_json(v.at("right"))}};
  if (type == "except")
    return {AsExprExcept{as_expr_from_json(v.at("left")), as_expr_from_json(v.at("right"))}};
  throw JsonError("bad as-expr type: " + type);
}

json::Value to_json(const Peering& v) {
  return std::visit(overloaded{
                        [](const PeeringSpec& s) {
                          Value o = tagged("spec");
                          o["as-expr"] = to_json(s.as_expr);
                          if (!s.remote_router.empty()) o["remote-router"] = Value(s.remote_router);
                          if (!s.local_router.empty()) o["local-router"] = Value(s.local_router);
                          return o;
                        },
                        [](const PeeringSetRef& r) {
                          Value o = tagged("peering-set");
                          o["name"] = Value(r.name);
                          return o;
                        },
                    },
                    v.node);
}

Peering peering_from_json(const Value& v) {
  const std::string& type = v.at("type").as_string();
  if (type == "spec") {
    PeeringSpec s;
    s.as_expr = as_expr_from_json(v.at("as-expr"));
    if (const auto* r = v.find("remote-router")) s.remote_router = r->as_string();
    if (const auto* l = v.find("local-router")) s.local_router = l->as_string();
    return {std::move(s)};
  }
  if (type == "peering-set") return {PeeringSetRef{v.at("name").as_string()}};
  throw JsonError("bad peering type: " + type);
}

json::Value to_json(const Action& v) {
  Object o;
  o["kind"] = Value(v.kind == Action::Kind::kAssign ? "assign" : "call");
  o["attribute"] = Value(v.attribute);
  if (v.kind == Action::Kind::kAssign) {
    o["op"] = Value(v.op);
  } else {
    o["method"] = Value(v.method);
  }
  o["value"] = Value(v.value);
  return Value(std::move(o));
}

Action action_from_json(const Value& v) {
  Action a;
  const std::string& kind = v.at("kind").as_string();
  a.kind = kind == "assign" ? Action::Kind::kAssign : Action::Kind::kMethodCall;
  a.attribute = v.at("attribute").as_string();
  if (const auto* op = v.find("op")) a.op = op->as_string();
  if (const auto* m = v.find("method")) a.method = m->as_string();
  a.value = v.at("value").as_string();
  return a;
}

// ---------------------------------------------------------------------------
// AS-path regex
// ---------------------------------------------------------------------------

namespace {

Value set_item_to_json(const ReSetItem& item) {
  Object o;
  switch (item.kind) {
    case ReSetItem::Kind::kAsn:
      o["type"] = Value("asn");
      o["asn"] = Value(std::uint64_t{item.asn});
      break;
    case ReSetItem::Kind::kAsnRange:
      o["type"] = Value("asn-range");
      o["lo"] = Value(std::uint64_t{item.asn});
      o["hi"] = Value(std::uint64_t{item.asn_hi});
      break;
    case ReSetItem::Kind::kAsSet:
      o["type"] = Value("as-set");
      o["name"] = Value(item.as_set);
      break;
    case ReSetItem::Kind::kPeerAs:
      o["type"] = Value("peeras");
      break;
  }
  return Value(std::move(o));
}

ReSetItem set_item_from_json(const Value& v) {
  const std::string& type = v.at("type").as_string();
  ReSetItem item;
  if (type == "asn") {
    item.kind = ReSetItem::Kind::kAsn;
    item.asn = static_cast<Asn>(v.at("asn").as_int());
  } else if (type == "asn-range") {
    item.kind = ReSetItem::Kind::kAsnRange;
    item.asn = static_cast<Asn>(v.at("lo").as_int());
    item.asn_hi = static_cast<Asn>(v.at("hi").as_int());
  } else if (type == "as-set") {
    item.kind = ReSetItem::Kind::kAsSet;
    item.as_set = v.at("name").as_string();
  } else if (type == "peeras") {
    item.kind = ReSetItem::Kind::kPeerAs;
  } else {
    throw JsonError("bad regex set item: " + type);
  }
  return item;
}

Value re_token_to_json(const ReToken& t) {
  Object o;
  switch (t.kind) {
    case ReToken::Kind::kAsn:
      o["type"] = Value("asn");
      o["asn"] = Value(std::uint64_t{t.asn});
      break;
    case ReToken::Kind::kAsSet:
      o["type"] = Value("as-set");
      o["name"] = Value(t.as_set);
      break;
    case ReToken::Kind::kAny:
      o["type"] = Value("any");
      break;
    case ReToken::Kind::kPeerAs:
      o["type"] = Value("peeras");
      break;
    case ReToken::Kind::kSet: {
      o["type"] = Value("set");
      o["complemented"] = Value(t.complemented);
      Array items;
      for (const auto& item : t.items) items.push_back(set_item_to_json(item));
      o["items"] = Value(std::move(items));
      break;
    }
  }
  return Value(std::move(o));
}

ReToken re_token_from_json(const Value& v) {
  const std::string& type = v.at("type").as_string();
  ReToken t;
  if (type == "asn") {
    t.kind = ReToken::Kind::kAsn;
    t.asn = static_cast<Asn>(v.at("asn").as_int());
  } else if (type == "as-set") {
    t.kind = ReToken::Kind::kAsSet;
    t.as_set = v.at("name").as_string();
  } else if (type == "any") {
    t.kind = ReToken::Kind::kAny;
  } else if (type == "peeras") {
    t.kind = ReToken::Kind::kPeerAs;
  } else if (type == "set") {
    t.kind = ReToken::Kind::kSet;
    t.complemented = v.at("complemented").as_bool();
    for (const auto& item : v.at("items").as_array()) t.items.push_back(set_item_from_json(item));
  } else {
    throw JsonError("bad regex token: " + type);
  }
  return t;
}

AsPathRegexNode re_node_from_json(const Value& v);

}  // namespace

json::Value to_json(const AsPathRegexNode& v) {
  return std::visit(
      overloaded{
          [](const ReEmpty&) { return tagged("empty"); },
          [](const ReBeginAnchor&) { return tagged("begin"); },
          [](const ReEndAnchor&) { return tagged("end"); },
          [](const ReTokenNode& t) {
            Value o = tagged("token");
            o["token"] = re_token_to_json(t.token);
            return o;
          },
          [](const ReConcat& c) {
            Value o = tagged("concat");
            Array parts;
            for (const auto& p : c.parts) parts.push_back(to_json(*p));
            o["parts"] = Value(std::move(parts));
            return o;
          },
          [](const ReAlt& a) {
            Value o = tagged("alt");
            Array options;
            for (const auto& p : a.options) options.push_back(to_json(*p));
            o["options"] = Value(std::move(options));
            return o;
          },
          [](const ReRepeatNode& r) {
            Value o = tagged("repeat");
            o["inner"] = to_json(*r.inner);
            o["min"] = Value(std::uint64_t{r.repeat.min});
            if (r.repeat.max) o["max"] = Value(std::uint64_t{*r.repeat.max});
            o["same-pattern"] = Value(r.repeat.same_pattern);
            return o;
          },
      },
      v.node);
}

namespace {

AsPathRegexNode re_node_from_json(const Value& v) {
  const std::string& type = v.at("type").as_string();
  if (type == "empty") return {ReEmpty{}};
  if (type == "begin") return {ReBeginAnchor{}};
  if (type == "end") return {ReEndAnchor{}};
  if (type == "token") return {ReTokenNode{re_token_from_json(v.at("token"))}};
  if (type == "concat") {
    ReConcat c;
    for (const auto& p : v.at("parts").as_array()) c.parts.emplace_back(re_node_from_json(p));
    return {std::move(c)};
  }
  if (type == "alt") {
    ReAlt a;
    for (const auto& p : v.at("options").as_array()) a.options.emplace_back(re_node_from_json(p));
    return {std::move(a)};
  }
  if (type == "repeat") {
    ReRepeatNode r;
    *r.inner = re_node_from_json(v.at("inner"));
    r.repeat.min = static_cast<std::uint32_t>(v.at("min").as_int());
    if (const auto* max = v.find("max")) r.repeat.max = static_cast<std::uint32_t>(max->as_int());
    r.repeat.same_pattern = v.at("same-pattern").as_bool();
    return {std::move(r)};
  }
  throw JsonError("bad regex node: " + type);
}

}  // namespace

json::Value to_json(const AsPathRegex& v) {
  Object o;
  o["root"] = to_json(*v.root);
  o["text"] = Value(v.text);
  return Value(std::move(o));
}

AsPathRegex aspath_regex_from_json(const Value& v) {
  AsPathRegex r;
  *r.root = re_node_from_json(v.at("root"));
  r.text = v.at("text").as_string();
  return r;
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

json::Value to_json(const Filter& v) {
  return std::visit(
      overloaded{
          [](const FilterAny&) { return tagged("any"); },
          [](const FilterPeerAs&) { return tagged("peeras"); },
          [](const FilterFltrMartian&) { return tagged("fltr-martian"); },
          [](const FilterAsNum& n) {
            Value o = tagged("asn");
            o["asn"] = Value(std::uint64_t{n.asn});
            o["op"] = range_op_to_json(n.op);
            return o;
          },
          [](const FilterAsSet& s) {
            Value o = tagged("as-set");
            o["name"] = Value(s.name);
            o["op"] = range_op_to_json(s.op);
            return o;
          },
          [](const FilterRouteSet& s) {
            Value o = tagged("route-set");
            o["name"] = Value(s.name);
            o["op"] = range_op_to_json(s.op);
            return o;
          },
          [](const FilterFilterSet& s) {
            Value o = tagged("filter-set");
            o["name"] = Value(s.name);
            return o;
          },
          [](const FilterPrefixes& p) {
            Value o = tagged("prefixes");
            Array ranges;
            for (const auto& r : p.prefixes.ranges()) ranges.push_back(prefix_range_to_json(r));
            o["ranges"] = Value(std::move(ranges));
            o["op"] = range_op_to_json(p.op);
            return o;
          },
          [](const FilterAsPath& p) {
            Value o = tagged("as-path");
            o["regex"] = to_json(p.regex);
            return o;
          },
          [](const FilterCommunity& c) {
            Value o = tagged("community");
            o["method"] = Value(c.method);
            o["args"] = strings_to_json(c.args);
            return o;
          },
          [](const FilterAnd& n) {
            Value o = tagged("and");
            o["left"] = to_json(*n.left);
            o["right"] = to_json(*n.right);
            return o;
          },
          [](const FilterOr& n) {
            Value o = tagged("or");
            o["left"] = to_json(*n.left);
            o["right"] = to_json(*n.right);
            return o;
          },
          [](const FilterNot& n) {
            Value o = tagged("not");
            o["inner"] = to_json(*n.inner);
            return o;
          },
          [](const FilterUnknown& u) {
            Value o = tagged("unknown");
            o["text"] = Value(u.text);
            return o;
          },
      },
      v.node);
}

Filter filter_from_json(const Value& v) {
  const std::string& type = v.at("type").as_string();
  if (type == "any") return {FilterAny{}};
  if (type == "peeras") return {FilterPeerAs{}};
  if (type == "fltr-martian") return {FilterFltrMartian{}};
  if (type == "asn")
    return {FilterAsNum{static_cast<Asn>(v.at("asn").as_int()), range_op_from_json(v.at("op"))}};
  if (type == "as-set")
    return {FilterAsSet{v.at("name").as_string(), range_op_from_json(v.at("op"))}};
  if (type == "route-set")
    return {FilterRouteSet{v.at("name").as_string(), range_op_from_json(v.at("op"))}};
  if (type == "filter-set") return {FilterFilterSet{v.at("name").as_string()}};
  if (type == "prefixes") {
    net::PrefixSet set;
    for (const auto& r : v.at("ranges").as_array()) set.add(prefix_range_from_json(r));
    return {FilterPrefixes{std::move(set), range_op_from_json(v.at("op"))}};
  }
  if (type == "as-path") return {FilterAsPath{aspath_regex_from_json(v.at("regex"))}};
  if (type == "community")
    return {FilterCommunity{v.at("method").as_string(), strings_from_json(v.at("args"))}};
  if (type == "and")
    return {FilterAnd{filter_from_json(v.at("left")), filter_from_json(v.at("right"))}};
  if (type == "or")
    return {FilterOr{filter_from_json(v.at("left")), filter_from_json(v.at("right"))}};
  if (type == "not") return {FilterNot{filter_from_json(v.at("inner"))}};
  if (type == "unknown") return {FilterUnknown{v.at("text").as_string()}};
  throw JsonError("bad filter type: " + type);
}

// ---------------------------------------------------------------------------
// Entry / Rule
// ---------------------------------------------------------------------------

namespace {

Value factor_to_json(const PolicyFactor& s) {
  Object o;
  Array peerings;
  for (const auto& pa : s.peerings) {
    Object po;
    po["peering"] = to_json(pa.peering);
    Array actions;
    for (const auto& a : pa.actions) actions.push_back(to_json(a));
    po["actions"] = Value(std::move(actions));
    peerings.push_back(Value(std::move(po)));
  }
  o["peerings"] = Value(std::move(peerings));
  o["filter"] = to_json(s.filter);
  return Value(std::move(o));
}

PolicyFactor factor_from_json(const Value& v) {
  PolicyFactor s;
  for (const auto& po : v.at("peerings").as_array()) {
    PeeringAction pa;
    pa.peering = peering_from_json(po.at("peering"));
    for (const auto& a : po.at("actions").as_array()) pa.actions.push_back(action_from_json(a));
    s.peerings.push_back(std::move(pa));
  }
  s.filter = filter_from_json(v.at("filter"));
  return s;
}

}  // namespace

json::Value to_json(const Entry& v) {
  Value o = std::visit(
      overloaded{
          [](const EntryTerm& t) {
            Value o = tagged("term");
            Array factors;
            for (const auto& f : t.factors) factors.push_back(factor_to_json(f));
            o["factors"] = Value(std::move(factors));
            return o;
          },
          [](const EntryRefine& r) {
            Value o = tagged("refine");
            o["left"] = to_json(*r.left);
            o["right"] = to_json(*r.right);
            return o;
          },
          [](const EntryExcept& x) {
            Value o = tagged("except");
            o["left"] = to_json(*x.left);
            o["right"] = to_json(*x.right);
            return o;
          },
      },
      v.node);
  Array afis;
  for (const auto& afi : v.afis) afis.push_back(to_json(afi));
  o["afis"] = Value(std::move(afis));
  return o;
}

Entry entry_from_json(const Value& v) {
  Entry e;
  for (const auto& afi : v.at("afis").as_array()) e.afis.push_back(afi_from_json(afi));
  const std::string& type = v.at("type").as_string();
  if (type == "term") {
    EntryTerm t;
    for (const auto& f : v.at("factors").as_array()) t.factors.push_back(factor_from_json(f));
    e.node = std::move(t);
  } else if (type == "refine") {
    e.node = EntryRefine{entry_from_json(v.at("left")), entry_from_json(v.at("right"))};
  } else if (type == "except") {
    e.node = EntryExcept{entry_from_json(v.at("left")), entry_from_json(v.at("right"))};
  } else {
    throw JsonError("bad entry type: " + type);
  }
  return e;
}

json::Value to_json(const Rule& v) {
  Object o;
  o["direction"] = Value(v.is_import() ? "import" : "export");
  o["mp"] = Value(v.mp);
  if (!v.protocol.empty()) o["protocol"] = Value(v.protocol);
  if (!v.into.empty()) o["into"] = Value(v.into);
  o["entry"] = to_json(v.entry);
  o["text"] = Value(v.text);
  return Value(std::move(o));
}

Rule rule_from_json(const Value& v) {
  Rule r;
  r.direction = v.at("direction").as_string() == "import" ? Rule::Direction::kImport
                                                          : Rule::Direction::kExport;
  r.mp = v.at("mp").as_bool();
  if (const auto* p = v.find("protocol")) r.protocol = p->as_string();
  if (const auto* p = v.find("into")) r.into = p->as_string();
  r.entry = entry_from_json(v.at("entry"));
  r.text = v.at("text").as_string();
  return r;
}

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------

namespace {

RuleList rules_from_json(const Value& v) {
  std::vector<Rule> rules;
  for (const auto& r : v.as_array()) rules.push_back(rule_from_json(r));
  return RuleList(std::move(rules));
}

}  // namespace

json::Value to_json(const AutNum& v) {
  Object o;
  o["asn"] = Value(std::uint64_t{v.asn});
  o["as-name"] = Value(to_string(v.as_name));
  Array imports;
  for (const auto& r : v.imports) imports.push_back(to_json(r));
  o["imports"] = Value(std::move(imports));
  Array exports;
  for (const auto& r : v.exports) exports.push_back(to_json(r));
  o["exports"] = Value(std::move(exports));
  o["member-of"] = symbols_to_json(v.member_of);
  o["mnt-by"] = symbols_to_json(v.mnt_by);
  o["source"] = Value(to_string(v.source));
  return Value(std::move(o));
}

AutNum aut_num_from_json(const Value& v) {
  AutNum a;
  a.asn = static_cast<Asn>(v.at("asn").as_int());
  a.as_name = sym(v.at("as-name").as_string());
  a.imports = rules_from_json(v.at("imports"));
  a.exports = rules_from_json(v.at("exports"));
  a.member_of = symbols_from_json(v.at("member-of"));
  a.mnt_by = symbols_from_json(v.at("mnt-by"));
  a.source = sym(v.at("source").as_string());
  return a;
}

json::Value to_json(const AsSet& v) {
  Object o;
  o["name"] = Value(to_string(v.name));
  Array members;
  for (const auto& m : v.members) {
    Object mo;
    switch (m.kind) {
      case AsSetMember::Kind::kAsn:
        mo["type"] = Value("asn");
        mo["asn"] = Value(std::uint64_t{m.asn});
        break;
      case AsSetMember::Kind::kSet:
        mo["type"] = Value("set");
        mo["name"] = Value(to_string(m.name));
        break;
      case AsSetMember::Kind::kAny:
        mo["type"] = Value("any");
        break;
    }
    members.push_back(Value(std::move(mo)));
  }
  o["members"] = Value(std::move(members));
  o["mbrs-by-ref"] = symbols_to_json(v.mbrs_by_ref);
  o["mnt-by"] = symbols_to_json(v.mnt_by);
  o["source"] = Value(to_string(v.source));
  return Value(std::move(o));
}

AsSet as_set_from_json(const Value& v) {
  AsSet s;
  s.name = sym(v.at("name").as_string());
  for (const auto& m : v.at("members").as_array()) {
    const std::string& type = m.at("type").as_string();
    if (type == "asn") {
      s.members.push_back(AsSetMember::of_asn(static_cast<Asn>(m.at("asn").as_int())));
    } else if (type == "set") {
      s.members.push_back(AsSetMember::of_set(sym(m.at("name").as_string())));
    } else if (type == "any") {
      s.members.push_back(AsSetMember::any());
    } else {
      throw JsonError("bad as-set member: " + type);
    }
  }
  s.mbrs_by_ref = symbols_from_json(v.at("mbrs-by-ref"));
  s.mnt_by = symbols_from_json(v.at("mnt-by"));
  s.source = sym(v.at("source").as_string());
  return s;
}

namespace {

Value route_set_member_to_json(const RouteSetMember& m) {
  Object o;
  switch (m.kind) {
    case RouteSetMember::Kind::kPrefix:
      o["type"] = Value("prefix");
      o["prefix"] = prefix_range_to_json(m.prefix);
      break;
    case RouteSetMember::Kind::kRouteSet:
      o["type"] = Value("route-set");
      o["name"] = Value(to_string(m.name));
      o["op"] = range_op_to_json(m.op);
      break;
    case RouteSetMember::Kind::kAsSet:
      o["type"] = Value("as-set");
      o["name"] = Value(to_string(m.name));
      o["op"] = range_op_to_json(m.op);
      break;
    case RouteSetMember::Kind::kAsn:
      o["type"] = Value("asn");
      o["asn"] = Value(std::uint64_t{m.asn});
      o["op"] = range_op_to_json(m.op);
      break;
    case RouteSetMember::Kind::kAny:
      o["type"] = Value("any");
      break;
  }
  return Value(std::move(o));
}

RouteSetMember route_set_member_from_json(const Value& v) {
  RouteSetMember m;
  const std::string& type = v.at("type").as_string();
  if (type == "prefix") {
    m.kind = RouteSetMember::Kind::kPrefix;
    m.prefix = prefix_range_from_json(v.at("prefix"));
  } else if (type == "route-set") {
    m.kind = RouteSetMember::Kind::kRouteSet;
    m.name = sym(v.at("name").as_string());
    m.op = range_op_from_json(v.at("op"));
  } else if (type == "as-set") {
    m.kind = RouteSetMember::Kind::kAsSet;
    m.name = sym(v.at("name").as_string());
    m.op = range_op_from_json(v.at("op"));
  } else if (type == "asn") {
    m.kind = RouteSetMember::Kind::kAsn;
    m.asn = static_cast<Asn>(v.at("asn").as_int());
    m.op = range_op_from_json(v.at("op"));
  } else if (type == "any") {
    m.kind = RouteSetMember::Kind::kAny;
  } else {
    throw JsonError("bad route-set member: " + type);
  }
  return m;
}

}  // namespace

json::Value to_json(const RouteSet& v) {
  Object o;
  o["name"] = Value(to_string(v.name));
  Array members;
  for (const auto& m : v.members) members.push_back(route_set_member_to_json(m));
  o["members"] = Value(std::move(members));
  Array mp_members;
  for (const auto& m : v.mp_members) mp_members.push_back(route_set_member_to_json(m));
  o["mp-members"] = Value(std::move(mp_members));
  o["mbrs-by-ref"] = symbols_to_json(v.mbrs_by_ref);
  o["mnt-by"] = symbols_to_json(v.mnt_by);
  o["source"] = Value(to_string(v.source));
  return Value(std::move(o));
}

RouteSet route_set_from_json(const Value& v) {
  RouteSet s;
  s.name = sym(v.at("name").as_string());
  for (const auto& m : v.at("members").as_array())
    s.members.push_back(route_set_member_from_json(m));
  for (const auto& m : v.at("mp-members").as_array())
    s.mp_members.push_back(route_set_member_from_json(m));
  s.mbrs_by_ref = symbols_from_json(v.at("mbrs-by-ref"));
  s.mnt_by = symbols_from_json(v.at("mnt-by"));
  s.source = sym(v.at("source").as_string());
  return s;
}

json::Value to_json(const PeeringSet& v) {
  Object o;
  o["name"] = Value(to_string(v.name));
  Array peerings;
  for (const auto& p : v.peerings) peerings.push_back(to_json(p));
  o["peerings"] = Value(std::move(peerings));
  Array mp_peerings;
  for (const auto& p : v.mp_peerings) mp_peerings.push_back(to_json(p));
  o["mp-peerings"] = Value(std::move(mp_peerings));
  o["source"] = Value(to_string(v.source));
  return Value(std::move(o));
}

PeeringSet peering_set_from_json(const Value& v) {
  PeeringSet s;
  s.name = sym(v.at("name").as_string());
  for (const auto& p : v.at("peerings").as_array()) s.peerings.push_back(peering_from_json(p));
  for (const auto& p : v.at("mp-peerings").as_array())
    s.mp_peerings.push_back(peering_from_json(p));
  s.source = sym(v.at("source").as_string());
  return s;
}

json::Value to_json(const FilterSet& v) {
  Object o;
  o["name"] = Value(to_string(v.name));
  if (v.has_filter) o["filter"] = to_json(v.filter);
  if (v.has_mp_filter) o["mp-filter"] = to_json(v.mp_filter);
  o["source"] = Value(to_string(v.source));
  return Value(std::move(o));
}

FilterSet filter_set_from_json(const Value& v) {
  FilterSet s;
  s.name = sym(v.at("name").as_string());
  if (const auto* f = v.find("filter")) {
    s.filter = filter_from_json(*f);
    s.has_filter = true;
  }
  if (const auto* f = v.find("mp-filter")) {
    s.mp_filter = filter_from_json(*f);
    s.has_mp_filter = true;
  }
  s.source = sym(v.at("source").as_string());
  return s;
}

json::Value to_json(const RouteObject& v) {
  Object o;
  o["prefix"] = Value(v.prefix.to_string());
  o["origin"] = Value(std::uint64_t{v.origin});
  o["member-of"] = symbols_to_json(v.member_of);
  o["mnt-by"] = symbols_to_json(v.mnt_by);
  o["source"] = Value(to_string(v.source));
  return Value(std::move(o));
}

RouteObject route_object_from_json(const Value& v) {
  RouteObject r;
  auto prefix = net::Prefix::parse(v.at("prefix").as_string());
  if (!prefix) throw JsonError("bad route prefix");
  r.prefix = *prefix;
  r.origin = static_cast<Asn>(v.at("origin").as_int());
  r.member_of = symbols_from_json(v.at("member-of"));
  r.mnt_by = symbols_from_json(v.at("mnt-by"));
  r.source = sym(v.at("source").as_string());
  return r;
}

json::Value to_json(const Ir& v) {
  Object o;
  Object aut_nums;
  for (const auto& [asn, an] : v.aut_nums) aut_nums[std::to_string(asn)] = to_json(an);
  o["aut-nums"] = Value(std::move(aut_nums));
  Object as_sets;
  for (const auto& [name, s] : v.as_sets) as_sets[name] = to_json(s);
  o["as-sets"] = Value(std::move(as_sets));
  Object route_sets;
  for (const auto& [name, s] : v.route_sets) route_sets[name] = to_json(s);
  o["route-sets"] = Value(std::move(route_sets));
  Object peering_sets;
  for (const auto& [name, s] : v.peering_sets) peering_sets[name] = to_json(s);
  o["peering-sets"] = Value(std::move(peering_sets));
  Object filter_sets;
  for (const auto& [name, s] : v.filter_sets) filter_sets[name] = to_json(s);
  o["filter-sets"] = Value(std::move(filter_sets));
  Array routes;
  for (const auto& r : v.routes) routes.push_back(to_json(r));
  o["routes"] = Value(std::move(routes));
  return Value(std::move(o));
}

Ir ir_from_json(const Value& v) {
  Ir ir;
  for (const auto& [key, an] : v.at("aut-nums").as_object()) {
    auto asn = util::parse_u32(key);
    if (!asn) throw JsonError("bad aut-num key: " + key);
    ir.aut_nums.emplace(*asn, aut_num_from_json(an));
  }
  for (const auto& [name, s] : v.at("as-sets").as_object())
    ir.as_sets.emplace(name, as_set_from_json(s));
  for (const auto& [name, s] : v.at("route-sets").as_object())
    ir.route_sets.emplace(name, route_set_from_json(s));
  for (const auto& [name, s] : v.at("peering-sets").as_object())
    ir.peering_sets.emplace(name, peering_set_from_json(s));
  for (const auto& [name, s] : v.at("filter-sets").as_object())
    ir.filter_sets.emplace(name, filter_set_from_json(s));
  for (const auto& r : v.at("routes").as_array()) ir.routes.push_back(route_object_from_json(r));
  return ir;
}

}  // namespace rpslyzer::ir
