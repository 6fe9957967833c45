#include "ir_codec.hpp"

#include <algorithm>
#include <limits>

#include "rpslyzer/ir/policy.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::persist {

namespace {

// Every enum is written as u8 and range-checked on decode: a corrupted tag
// must become SnapshotError, never an out-of-range enum value.
std::uint8_t checked_tag(ByteReader& r, std::uint8_t max, const char* what) {
  const std::uint8_t tag = r.u8();
  if (tag > max) throw SnapshotError(std::string("snapshot IR codec: bad ") + what + " tag");
  return tag;
}

template <typename Fn>
void decode_vector_into(ByteReader& r, Fn&& per_element) {
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) per_element();
}

// Same, but reserving the destination up front. Every encoded element is at
// least one byte, so clamping the reservation to the bytes actually left in
// the section keeps a corrupted count from driving a huge allocation while
// still sizing honest vectors exactly.
template <typename T, typename Fn>
void decode_elements_into(ByteReader& r, std::vector<T>& out, Fn&& per_element) {
  const std::uint32_t count = r.u32();
  out.reserve(std::min<std::size_t>(count, r.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) per_element();
}

void encode_count(ByteWriter& w, std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw SnapshotError("snapshot IR codec: collection too large");
  }
  w.u32(static_cast<std::uint32_t>(n));
}

void encode_string_vector(ByteWriter& w, const std::vector<std::string>& v) {
  encode_count(w, v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> decode_string_vector(ByteReader& r) {
  std::vector<std::string> out;
  decode_elements_into(r, out, [&] { out.push_back(r.str()); });
  return out;
}

// Interned symbols go over the wire as their exact spelling, so the
// encoded bytes are identical to the std::string era and decode simply
// re-interns (idempotent, process-wide table).
void encode_symbol(ByteWriter& w, ir::Symbol s) { w.str(ir::sym_view(s)); }

ir::Symbol decode_symbol(ByteReader& r) { return ir::sym(r.str()); }

void encode_symbol_vector(ByteWriter& w, const std::vector<ir::Symbol>& v) {
  encode_count(w, v.size());
  for (const ir::Symbol s : v) encode_symbol(w, s);
}

std::vector<ir::Symbol> decode_symbol_vector(ByteReader& r) {
  std::vector<ir::Symbol> out;
  decode_elements_into(r, out, [&] { out.push_back(decode_symbol(r)); });
  return out;
}

// --- net primitives --------------------------------------------------------

void encode_prefix_range(ByteWriter& w, const net::PrefixRange& pr) {
  encode_prefix(w, pr.prefix);
  encode_range_op(w, pr.op);
}

net::PrefixRange decode_prefix_range(ByteReader& r) {
  net::PrefixRange pr;
  pr.prefix = decode_prefix(r);
  pr.op = decode_range_op(r);
  return pr;
}

// --- AS-path regexes -------------------------------------------------------

void encode_regex_node(ByteWriter& w, const ir::AsPathRegexNode& node);

ir::AsPathRegexNode decode_regex_node(ByteReader& r);

void encode_regex_box(ByteWriter& w, const ir::AsPathRegexBox& box) {
  encode_regex_node(w, *box);
}

ir::AsPathRegexBox decode_regex_box(ByteReader& r) {
  return ir::AsPathRegexBox(decode_regex_node(r));
}

void encode_regex_node(ByteWriter& w, const ir::AsPathRegexNode& node) {
  std::visit(util::overloaded{
                 [&](const ir::ReEmpty&) { w.u8(0); },
                 [&](const ir::ReTokenNode& n) {
                   w.u8(1);
                   encode_re_token(w, n.token);
                 },
                 [&](const ir::ReBeginAnchor&) { w.u8(2); },
                 [&](const ir::ReEndAnchor&) { w.u8(3); },
                 [&](const ir::ReConcat& n) {
                   w.u8(4);
                   encode_count(w, n.parts.size());
                   for (const auto& part : n.parts) encode_regex_box(w, part);
                 },
                 [&](const ir::ReAlt& n) {
                   w.u8(5);
                   encode_count(w, n.options.size());
                   for (const auto& option : n.options) encode_regex_box(w, option);
                 },
                 [&](const ir::ReRepeatNode& n) {
                   w.u8(6);
                   encode_regex_box(w, n.inner);
                   w.u32(n.repeat.min);
                   w.u8(n.repeat.max.has_value() ? 1 : 0);
                   w.u32(n.repeat.max.value_or(0));
                   w.u8(n.repeat.same_pattern ? 1 : 0);
                 },
             },
             node.node);
}

ir::AsPathRegexNode decode_regex_node(ByteReader& r) {
  ir::AsPathRegexNode out;
  switch (checked_tag(r, 6, "regex node")) {
    case 0:
      out.node = ir::ReEmpty{};
      break;
    case 1: {
      ir::ReTokenNode n;
      n.token = decode_re_token(r);
      out.node = std::move(n);
      break;
    }
    case 2:
      out.node = ir::ReBeginAnchor{};
      break;
    case 3:
      out.node = ir::ReEndAnchor{};
      break;
    case 4: {
      ir::ReConcat n;
      decode_elements_into(r, n.parts, [&] { n.parts.push_back(decode_regex_box(r)); });
      out.node = std::move(n);
      break;
    }
    case 5: {
      ir::ReAlt n;
      decode_elements_into(r, n.options, [&] { n.options.push_back(decode_regex_box(r)); });
      out.node = std::move(n);
      break;
    }
    case 6: {
      ir::ReRepeatNode n;
      n.inner = decode_regex_box(r);
      n.repeat.min = r.u32();
      const bool has_max = r.u8() != 0;
      const std::uint32_t max = r.u32();
      if (has_max) n.repeat.max = max;
      n.repeat.same_pattern = r.u8() != 0;
      out.node = std::move(n);
      break;
    }
  }
  return out;
}

void encode_aspath_regex(ByteWriter& w, const ir::AsPathRegex& regex) {
  encode_regex_box(w, regex.root);
  w.str(regex.text);
}

ir::AsPathRegex decode_aspath_regex(ByteReader& r) {
  ir::AsPathRegex out;
  out.root = decode_regex_box(r);
  out.text = r.str();
  return out;
}

// --- peerings, actions, filters --------------------------------------------

void encode_as_expr(ByteWriter& w, const ir::AsExpr& expr) {
  std::visit(util::overloaded{
                 [&](const ir::AsExprAsn& e) {
                   w.u8(0);
                   w.u32(e.asn);
                 },
                 [&](const ir::AsExprSet& e) {
                   w.u8(1);
                   w.str(e.name);
                 },
                 [&](const ir::AsExprAny&) { w.u8(2); },
                 [&](const ir::AsExprAnd& e) {
                   w.u8(3);
                   encode_as_expr(w, *e.left);
                   encode_as_expr(w, *e.right);
                 },
                 [&](const ir::AsExprOr& e) {
                   w.u8(4);
                   encode_as_expr(w, *e.left);
                   encode_as_expr(w, *e.right);
                 },
                 [&](const ir::AsExprExcept& e) {
                   w.u8(5);
                   encode_as_expr(w, *e.left);
                   encode_as_expr(w, *e.right);
                 },
             },
             expr.node);
}

ir::AsExpr decode_as_expr(ByteReader& r) {
  ir::AsExpr out;
  switch (checked_tag(r, 5, "as-expr")) {
    case 0:
      out.node = ir::AsExprAsn{r.u32()};
      break;
    case 1:
      out.node = ir::AsExprSet{r.str()};
      break;
    case 2:
      out.node = ir::AsExprAny{};
      break;
    case 3: {
      ir::AsExprAnd e;
      *e.left = decode_as_expr(r);
      *e.right = decode_as_expr(r);
      out.node = std::move(e);
      break;
    }
    case 4: {
      ir::AsExprOr e;
      *e.left = decode_as_expr(r);
      *e.right = decode_as_expr(r);
      out.node = std::move(e);
      break;
    }
    case 5: {
      ir::AsExprExcept e;
      *e.left = decode_as_expr(r);
      *e.right = decode_as_expr(r);
      out.node = std::move(e);
      break;
    }
  }
  return out;
}

void encode_peering(ByteWriter& w, const ir::Peering& peering) {
  std::visit(util::overloaded{
                 [&](const ir::PeeringSpec& p) {
                   w.u8(0);
                   encode_as_expr(w, p.as_expr);
                   w.str(p.remote_router);
                   w.str(p.local_router);
                 },
                 [&](const ir::PeeringSetRef& p) {
                   w.u8(1);
                   w.str(p.name);
                 },
             },
             peering.node);
}

ir::Peering decode_peering(ByteReader& r) {
  ir::Peering out;
  if (checked_tag(r, 1, "peering") == 0) {
    ir::PeeringSpec p;
    p.as_expr = decode_as_expr(r);
    p.remote_router = r.str();
    p.local_router = r.str();
    out.node = std::move(p);
  } else {
    out.node = ir::PeeringSetRef{r.str()};
  }
  return out;
}

void encode_action(ByteWriter& w, const ir::Action& a) {
  w.u8(static_cast<std::uint8_t>(a.kind));
  w.str(a.attribute);
  w.str(a.op);
  w.str(a.method);
  w.str(a.value);
}

ir::Action decode_action(ByteReader& r) {
  ir::Action a;
  a.kind = static_cast<ir::Action::Kind>(checked_tag(r, 1, "action"));
  a.attribute = r.str();
  a.op = r.str();
  a.method = r.str();
  a.value = r.str();
  return a;
}

void encode_filter(ByteWriter& w, const ir::Filter& filter) {
  std::visit(
      util::overloaded{
          [&](const ir::FilterAny&) { w.u8(0); },
          [&](const ir::FilterPeerAs&) { w.u8(1); },
          [&](const ir::FilterFltrMartian&) { w.u8(2); },
          [&](const ir::FilterAsNum& f) {
            w.u8(3);
            w.u32(f.asn);
            encode_range_op(w, f.op);
          },
          [&](const ir::FilterAsSet& f) {
            w.u8(4);
            w.str(f.name);
            encode_range_op(w, f.op);
          },
          [&](const ir::FilterRouteSet& f) {
            w.u8(5);
            w.str(f.name);
            encode_range_op(w, f.op);
          },
          [&](const ir::FilterFilterSet& f) {
            w.u8(6);
            w.str(f.name);
          },
          [&](const ir::FilterPrefixes& f) {
            w.u8(7);
            encode_count(w, f.prefixes.ranges().size());
            for (const net::PrefixRange& pr : f.prefixes.ranges()) encode_prefix_range(w, pr);
            encode_range_op(w, f.op);
          },
          [&](const ir::FilterAsPath& f) {
            w.u8(8);
            encode_aspath_regex(w, f.regex);
          },
          [&](const ir::FilterCommunity& f) {
            w.u8(9);
            w.str(f.method);
            encode_string_vector(w, f.args);
          },
          [&](const ir::FilterAnd& f) {
            w.u8(10);
            encode_filter(w, *f.left);
            encode_filter(w, *f.right);
          },
          [&](const ir::FilterOr& f) {
            w.u8(11);
            encode_filter(w, *f.left);
            encode_filter(w, *f.right);
          },
          [&](const ir::FilterNot& f) {
            w.u8(12);
            encode_filter(w, *f.inner);
          },
          [&](const ir::FilterUnknown& f) {
            w.u8(13);
            w.str(f.text);
          },
      },
      filter.node);
}

ir::Filter decode_filter(ByteReader& r) {
  ir::Filter out;
  switch (checked_tag(r, 13, "filter")) {
    case 0:
      out.node = ir::FilterAny{};
      break;
    case 1:
      out.node = ir::FilterPeerAs{};
      break;
    case 2:
      out.node = ir::FilterFltrMartian{};
      break;
    case 3: {
      ir::FilterAsNum f;
      f.asn = r.u32();
      f.op = decode_range_op(r);
      out.node = f;
      break;
    }
    case 4: {
      ir::FilterAsSet f;
      f.name = r.str();
      f.op = decode_range_op(r);
      out.node = std::move(f);
      break;
    }
    case 5: {
      ir::FilterRouteSet f;
      f.name = r.str();
      f.op = decode_range_op(r);
      out.node = std::move(f);
      break;
    }
    case 6:
      out.node = ir::FilterFilterSet{r.str()};
      break;
    case 7: {
      std::vector<net::PrefixRange> ranges;
      decode_elements_into(r, ranges, [&] { ranges.push_back(decode_prefix_range(r)); });
      ir::FilterPrefixes f;
      f.prefixes = net::PrefixSet(std::move(ranges));
      f.op = decode_range_op(r);
      out.node = std::move(f);
      break;
    }
    case 8: {
      ir::FilterAsPath f;
      f.regex = decode_aspath_regex(r);
      out.node = std::move(f);
      break;
    }
    case 9: {
      ir::FilterCommunity f;
      f.method = r.str();
      f.args = decode_string_vector(r);
      out.node = std::move(f);
      break;
    }
    case 10: {
      ir::FilterAnd f;
      *f.left = decode_filter(r);
      *f.right = decode_filter(r);
      out.node = std::move(f);
      break;
    }
    case 11: {
      ir::FilterOr f;
      *f.left = decode_filter(r);
      *f.right = decode_filter(r);
      out.node = std::move(f);
      break;
    }
    case 12: {
      ir::FilterNot f;
      *f.inner = decode_filter(r);
      out.node = std::move(f);
      break;
    }
    case 13:
      out.node = ir::FilterUnknown{r.str()};
      break;
  }
  return out;
}

// --- entries and rules -----------------------------------------------------

void encode_entry(ByteWriter& w, const ir::Entry& entry) {
  encode_count(w, entry.afis.size());
  for (const ir::Afi& afi : entry.afis) {
    w.u8(static_cast<std::uint8_t>(afi.ip));
    w.u8(static_cast<std::uint8_t>(afi.cast));
  }
  std::visit(util::overloaded{
                 [&](const ir::EntryTerm& term) {
                   w.u8(0);
                   encode_count(w, term.factors.size());
                   for (const ir::PolicyFactor& factor : term.factors) {
                     encode_count(w, factor.peerings.size());
                     for (const ir::PeeringAction& pa : factor.peerings) {
                       encode_peering(w, pa.peering);
                       encode_count(w, pa.actions.size());
                       for (const ir::Action& a : pa.actions) encode_action(w, a);
                     }
                     encode_filter(w, factor.filter);
                   }
                 },
                 [&](const ir::EntryRefine& e) {
                   w.u8(1);
                   encode_entry(w, *e.left);
                   encode_entry(w, *e.right);
                 },
                 [&](const ir::EntryExcept& e) {
                   w.u8(2);
                   encode_entry(w, *e.left);
                   encode_entry(w, *e.right);
                 },
             },
             entry.node);
}

ir::Entry decode_entry(ByteReader& r) {
  ir::Entry out;
  decode_elements_into(r, out.afis, [&] {
    ir::Afi afi;
    afi.ip = static_cast<ir::Afi::Ip>(checked_tag(r, 2, "afi ip"));
    afi.cast = static_cast<ir::Afi::Cast>(checked_tag(r, 2, "afi cast"));
    out.afis.push_back(afi);
  });
  switch (checked_tag(r, 2, "entry")) {
    case 0: {
      ir::EntryTerm term;
      decode_elements_into(r, term.factors, [&] {
        ir::PolicyFactor factor;
        decode_elements_into(r, factor.peerings, [&] {
          ir::PeeringAction pa;
          pa.peering = decode_peering(r);
          decode_elements_into(r, pa.actions, [&] { pa.actions.push_back(decode_action(r)); });
          factor.peerings.push_back(std::move(pa));
        });
        factor.filter = decode_filter(r);
        term.factors.push_back(std::move(factor));
      });
      out.node = std::move(term);
      break;
    }
    case 1: {
      ir::EntryRefine e;
      *e.left = decode_entry(r);
      *e.right = decode_entry(r);
      out.node = std::move(e);
      break;
    }
    case 2: {
      ir::EntryExcept e;
      *e.left = decode_entry(r);
      *e.right = decode_entry(r);
      out.node = std::move(e);
      break;
    }
  }
  return out;
}

void encode_rule(ByteWriter& w, const ir::Rule& rule) {
  w.u8(static_cast<std::uint8_t>(rule.direction));
  w.u8(rule.mp ? 1 : 0);
  w.str(rule.protocol);
  w.str(rule.into);
  encode_entry(w, rule.entry);
  w.str(rule.text);
}

ir::Rule decode_rule(ByteReader& r) {
  ir::Rule rule;
  rule.direction = static_cast<ir::Rule::Direction>(checked_tag(r, 1, "rule direction"));
  rule.mp = r.u8() != 0;
  rule.protocol = r.str();
  rule.into = r.str();
  rule.entry = decode_entry(r);
  rule.text = r.str();
  return rule;
}

ir::RuleList decode_rules(ByteReader& r) {
  std::vector<ir::Rule> rules;
  decode_elements_into(r, rules, [&] { rules.push_back(decode_rule(r)); });
  return ir::RuleList(std::move(rules));
}

// --- objects ---------------------------------------------------------------

void encode_aut_num(ByteWriter& w, const ir::AutNum& an) {
  w.u32(an.asn);
  encode_symbol(w, an.as_name);
  encode_count(w, an.imports.size());
  for (const ir::Rule& rule : an.imports) encode_rule(w, rule);
  encode_count(w, an.exports.size());
  for (const ir::Rule& rule : an.exports) encode_rule(w, rule);
  encode_symbol_vector(w, an.member_of);
  encode_symbol_vector(w, an.mnt_by);
  encode_symbol(w, an.source);
}

ir::AutNum decode_aut_num(ByteReader& r) {
  ir::AutNum an;
  an.asn = r.u32();
  an.as_name = decode_symbol(r);
  an.imports = decode_rules(r);
  an.exports = decode_rules(r);
  an.member_of = decode_symbol_vector(r);
  an.mnt_by = decode_symbol_vector(r);
  an.source = decode_symbol(r);
  return an;
}

void encode_as_set(ByteWriter& w, const ir::AsSet& set) {
  encode_symbol(w, set.name);
  encode_count(w, set.members.size());
  for (const ir::AsSetMember& m : set.members) {
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.u32(m.asn);
    encode_symbol(w, m.name);
  }
  encode_symbol_vector(w, set.mbrs_by_ref);
  encode_symbol_vector(w, set.mnt_by);
  encode_symbol(w, set.source);
}

ir::AsSet decode_as_set(ByteReader& r) {
  ir::AsSet set;
  set.name = decode_symbol(r);
  decode_elements_into(r, set.members, [&] {
    ir::AsSetMember m;
    m.kind = static_cast<ir::AsSetMember::Kind>(checked_tag(r, 2, "as-set member"));
    m.asn = r.u32();
    m.name = decode_symbol(r);
    set.members.push_back(std::move(m));
  });
  set.mbrs_by_ref = decode_symbol_vector(r);
  set.mnt_by = decode_symbol_vector(r);
  set.source = decode_symbol(r);
  return set;
}

void encode_route_set(ByteWriter& w, const ir::RouteSet& set) {
  encode_symbol(w, set.name);
  for (const auto* list : {&set.members, &set.mp_members}) {
    encode_count(w, list->size());
    for (const ir::RouteSetMember& m : *list) {
      w.u8(static_cast<std::uint8_t>(m.kind));
      encode_prefix_range(w, m.prefix);
      encode_symbol(w, m.name);
      w.u32(m.asn);
      encode_range_op(w, m.op);
    }
  }
  encode_symbol_vector(w, set.mbrs_by_ref);
  encode_symbol_vector(w, set.mnt_by);
  encode_symbol(w, set.source);
}

ir::RouteSet decode_route_set(ByteReader& r) {
  ir::RouteSet set;
  set.name = decode_symbol(r);
  for (auto* list : {&set.members, &set.mp_members}) {
    decode_elements_into(r, *list, [&] {
      ir::RouteSetMember m;
      m.kind = static_cast<ir::RouteSetMember::Kind>(checked_tag(r, 4, "route-set member"));
      m.prefix = decode_prefix_range(r);
      m.name = decode_symbol(r);
      m.asn = r.u32();
      m.op = decode_range_op(r);
      list->push_back(std::move(m));
    });
  }
  set.mbrs_by_ref = decode_symbol_vector(r);
  set.mnt_by = decode_symbol_vector(r);
  set.source = decode_symbol(r);
  return set;
}

void encode_peering_set(ByteWriter& w, const ir::PeeringSet& set) {
  encode_symbol(w, set.name);
  for (const auto* list : {&set.peerings, &set.mp_peerings}) {
    encode_count(w, list->size());
    for (const ir::Peering& p : *list) encode_peering(w, p);
  }
  encode_symbol(w, set.source);
}

ir::PeeringSet decode_peering_set(ByteReader& r) {
  ir::PeeringSet set;
  set.name = decode_symbol(r);
  for (auto* list : {&set.peerings, &set.mp_peerings}) {
    decode_elements_into(r, *list, [&] { list->push_back(decode_peering(r)); });
  }
  set.source = decode_symbol(r);
  return set;
}

void encode_filter_set(ByteWriter& w, const ir::FilterSet& set) {
  encode_symbol(w, set.name);
  w.u8(set.has_filter ? 1 : 0);
  encode_filter(w, set.filter);
  w.u8(set.has_mp_filter ? 1 : 0);
  encode_filter(w, set.mp_filter);
  encode_symbol(w, set.source);
}

ir::FilterSet decode_filter_set(ByteReader& r) {
  ir::FilterSet set;
  set.name = decode_symbol(r);
  set.has_filter = r.u8() != 0;
  set.filter = decode_filter(r);
  set.has_mp_filter = r.u8() != 0;
  set.mp_filter = decode_filter(r);
  set.source = decode_symbol(r);
  return set;
}

void encode_route_object(ByteWriter& w, const ir::RouteObject& route) {
  encode_prefix(w, route.prefix);
  w.u32(route.origin);
  encode_symbol_vector(w, route.member_of);
  encode_symbol_vector(w, route.mnt_by);
  encode_symbol(w, route.source);
}

ir::RouteObject decode_route_object(ByteReader& r) {
  ir::RouteObject route;
  route.prefix = decode_prefix(r);
  route.origin = r.u32();
  route.member_of = decode_symbol_vector(r);
  route.mnt_by = decode_symbol_vector(r);
  route.source = decode_symbol(r);
  return route;
}

}  // namespace

void encode_prefix(ByteWriter& w, const net::Prefix& p) {
  w.u8(static_cast<std::uint8_t>(p.family()));
  w.u8(p.length());
  w.u64(p.address().hi());
  w.u64(p.address().lo());
}

net::Prefix decode_prefix(ByteReader& r) {
  const auto family = static_cast<net::Family>(checked_tag(r, 1, "prefix family"));
  const std::uint8_t len = r.u8();
  const std::uint64_t hi = r.u64();
  const std::uint64_t lo = r.u64();
  return net::Prefix(net::IpAddress(family, hi, lo), len);
}

void encode_range_op(ByteWriter& w, const net::RangeOp& op) {
  w.u8(static_cast<std::uint8_t>(op.kind));
  w.u8(op.n);
  w.u8(op.m);
}

net::RangeOp decode_range_op(ByteReader& r) {
  net::RangeOp op;
  op.kind = static_cast<net::RangeOp::Kind>(checked_tag(r, 4, "range op"));
  op.n = r.u8();
  op.m = r.u8();
  return op;
}

void encode_re_token(ByteWriter& w, const ir::ReToken& token) {
  w.u8(static_cast<std::uint8_t>(token.kind));
  w.u32(token.asn);
  w.str(token.as_set);
  w.u8(token.complemented ? 1 : 0);
  encode_count(w, token.items.size());
  for (const ir::ReSetItem& item : token.items) {
    w.u8(static_cast<std::uint8_t>(item.kind));
    w.u32(item.asn);
    w.u32(item.asn_hi);
    w.str(item.as_set);
  }
}

ir::ReToken decode_re_token(ByteReader& r) {
  ir::ReToken token;
  token.kind = static_cast<ir::ReToken::Kind>(checked_tag(r, 4, "regex token"));
  token.asn = r.u32();
  token.as_set = r.str();
  token.complemented = r.u8() != 0;
  decode_elements_into(r, token.items, [&] {
    ir::ReSetItem item;
    item.kind = static_cast<ir::ReSetItem::Kind>(checked_tag(r, 3, "regex set item"));
    item.asn = r.u32();
    item.asn_hi = r.u32();
    item.as_set = r.str();
    token.items.push_back(std::move(item));
  });
  return token;
}

void encode_ir(ByteWriter& w, const ir::Ir& ir) {
  encode_count(w, ir.aut_nums.size());
  for (const auto& [asn, an] : ir.aut_nums) encode_aut_num(w, an);
  encode_count(w, ir.as_sets.size());
  for (const auto& [name, set] : ir.as_sets) encode_as_set(w, set);
  encode_count(w, ir.route_sets.size());
  for (const auto& [name, set] : ir.route_sets) encode_route_set(w, set);
  encode_count(w, ir.peering_sets.size());
  for (const auto& [name, set] : ir.peering_sets) encode_peering_set(w, set);
  encode_count(w, ir.filter_sets.size());
  for (const auto& [name, set] : ir.filter_sets) encode_filter_set(w, set);
  encode_count(w, ir.routes.size());
  for (const ir::RouteObject& route : ir.routes) encode_route_object(w, route);
}

ir::Ir decode_ir(ByteReader& r) {
  // Objects were written in map iteration order, so every key arrives
  // sorted: the end() hint turns each tree insert into an O(1) append.
  ir::Ir out;
  decode_vector_into(r, [&] {
    ir::AutNum an = decode_aut_num(r);
    const ir::Asn asn = an.asn;
    out.aut_nums.emplace_hint(out.aut_nums.end(), asn, std::move(an));
  });
  decode_vector_into(r, [&] {
    ir::AsSet set = decode_as_set(r);
    std::string name = ir::to_string(set.name);
    out.as_sets.emplace_hint(out.as_sets.end(), std::move(name), std::move(set));
  });
  decode_vector_into(r, [&] {
    ir::RouteSet set = decode_route_set(r);
    std::string name = ir::to_string(set.name);
    out.route_sets.emplace_hint(out.route_sets.end(), std::move(name), std::move(set));
  });
  decode_vector_into(r, [&] {
    ir::PeeringSet set = decode_peering_set(r);
    std::string name = ir::to_string(set.name);
    out.peering_sets.emplace_hint(out.peering_sets.end(), std::move(name), std::move(set));
  });
  decode_vector_into(r, [&] {
    ir::FilterSet set = decode_filter_set(r);
    std::string name = ir::to_string(set.name);
    out.filter_sets.emplace_hint(out.filter_sets.end(), std::move(name), std::move(set));
  });
  decode_elements_into(r, out.routes, [&] { out.routes.push_back(decode_route_object(r)); });
  return out;
}

}  // namespace rpslyzer::persist
