#include "rpslyzer/rpsl/object_parser.hpp"

#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::rpsl {

namespace {

using util::DiagnosticKind;
using util::iequals;
using util::trim;

// ---------------------------------------------------------------------------
// Structured policy (RFC 2622 §6, RFC 4012 afi extension)
// ---------------------------------------------------------------------------

ir::PolicyFactor parse_factor(Cursor& cur, bool is_import, const ParseContext& ctx, bool& ok) {
  ir::PolicyFactor factor;
  const std::string_view peering_kw = is_import ? "from" : "to";
  while (cur.eat_keyword(peering_kw)) {
    ir::PeeringAction pa;
    auto peering = parse_peering(cur, ctx);
    if (!peering) {
      ok = false;
      // Resynchronize on the next structural keyword.
      take_until_keywords(cur, {"from", "to", "action", "accept", "announce"});
    } else {
      pa.peering = std::move(*peering);
    }
    if (cur.eat_keyword("action")) pa.actions = parse_actions(cur, ctx);
    factor.peerings.push_back(std::move(pa));
  }
  if (factor.peerings.empty()) {
    ctx.syntax_error(std::string("expected '") + std::string(peering_kw) + "' clause near '" +
                     std::string(cur.remaining().substr(0, 30)) + "'");
    ok = false;
  }

  const std::string_view filter_kw = is_import ? "accept" : "announce";
  if (!cur.eat_keyword(filter_kw)) {
    ctx.syntax_error(std::string("expected '") + std::string(filter_kw) + "' near '" +
                     std::string(cur.remaining().substr(0, 30)) + "'");
    ok = false;
    factor.filter =
        ir::Filter{ir::FilterUnknown{std::string(take_until_keywords(cur, {"except", "refine"}))}};
    return factor;
  }
  // The filter runs to ';' (or an EXCEPT/REFINE that lost its ';').
  std::string_view filter_text = take_until_keywords(cur, {"except", "refine"});
  factor.filter = parse_filter(filter_text, ctx);
  return factor;
}

ir::Entry parse_entry(Cursor& cur, bool is_import, const ParseContext& ctx, bool& ok) {
  ir::Entry entry;
  if (cur.eat_keyword("afi")) entry.afis = parse_afi_list(cur, ctx);

  ir::EntryTerm term;
  if (cur.peek() == '{') {
    auto inside = cur.take_braced();
    if (!inside) {
      ctx.syntax_error("unbalanced '{' in policy expression");
      ok = false;
      entry.node = std::move(term);
      return entry;
    }
    Cursor inner(*inside);
    while (!inner.at_end()) {
      term.factors.push_back(parse_factor(inner, is_import, ctx, ok));
      if (!inner.eat_char(';') && !inner.at_end()) {
        ctx.syntax_error("expected ';' between policy factors");
        ok = false;
        break;
      }
    }
  } else {
    term.factors.push_back(parse_factor(cur, is_import, ctx, ok));
    cur.eat_char(';');  // terminator before EXCEPT/REFINE, optional at end
  }
  entry.node = std::move(term);

  // Right-recursive EXCEPT/REFINE chains (RFC 2622 §6.6 grammar).
  if (cur.eat_keyword("except")) {
    ir::Entry combined;
    combined.node = ir::EntryExcept{std::move(entry), parse_entry(cur, is_import, ctx, ok)};
    return combined;
  }
  if (cur.eat_keyword("refine")) {
    ir::Entry combined;
    combined.node = ir::EntryRefine{std::move(entry), parse_entry(cur, is_import, ctx, ok)};
    return combined;
  }
  return entry;
}

// ---------------------------------------------------------------------------
// Attribute helpers
// ---------------------------------------------------------------------------

/// Split a comma-separated list, reporting empty segments (the "broken
/// comma-separated lists" the paper calls out as a common syntax error) but
/// recovering the non-empty ones. Whitespace-only separation within a
/// segment is tolerated (non-standard but common).
std::vector<std::string_view> split_member_list(std::string_view text, const ParseContext& ctx) {
  std::vector<std::string_view> out;
  if (trim(text).empty()) return out;
  auto segments = util::split(text, ',');
  for (std::size_t i = 0; i < segments.size(); ++i) {
    std::string_view segment = trim(segments[i]);
    if (segment.empty()) {
      // A single trailing comma is tolerated silently; internal gaps and
      // leading commas are reported.
      if (i + 1 != segments.size() || segments.size() == 1) {
        ctx.syntax_error("broken comma-separated list");
      }
      continue;
    }
    for (auto token : util::split_ws(segment)) out.push_back(token);
  }
  return out;
}

std::vector<ir::Symbol> symbol_list(const RawObjectView& raw, std::string_view attr,
                                    const ParseContext& ctx) {
  std::vector<ir::Symbol> out;
  for (auto value : raw.all(attr)) {
    for (auto token : split_member_list(value, ctx)) out.push_back(ir::sym(token));
  }
  return out;
}

ParseContext context_for(const RawObjectView& raw, util::Diagnostics& diagnostics,
                         std::size_t line = 0) {
  ParseContext ctx;
  ctx.diagnostics = &diagnostics;
  ctx.object_key.reserve(raw.class_name.size() + 1 + raw.key.size());
  ctx.object_key.append(raw.class_name);
  ctx.object_key.push_back(':');
  ctx.object_key.append(raw.key);
  ctx.source = std::string(raw.source);
  ctx.line = line == 0 ? raw.line : line;
  return ctx;
}

// ---------------------------------------------------------------------------
// Object classes
// ---------------------------------------------------------------------------

std::optional<ir::AutNum> parse_aut_num(const RawObjectView& raw,
                                        util::Diagnostics& diagnostics) {
  ParseContext ctx = context_for(raw, diagnostics);
  auto asn = ir::parse_as_ref(raw.key);
  if (!asn) {
    ctx.error(DiagnosticKind::kInvalidAttribute,
              "invalid aut-num key: '" + std::string(raw.key) + "'");
    return std::nullopt;
  }
  ir::AutNum an;
  an.asn = *asn;
  an.as_name = ir::sym(raw.first("as-name"));
  an.member_of = symbol_list(raw, "member-of", ctx);
  an.mnt_by = symbol_list(raw, "mnt-by", ctx);
  an.source = ir::sym(raw.source);

  std::vector<ir::Rule> imports;
  std::vector<ir::Rule> exports;
  for (const auto& attr : raw.attributes) {
    ir::Rule::Direction direction;
    bool mp = false;
    if (attr.name == "import") {
      direction = ir::Rule::Direction::kImport;
    } else if (attr.name == "export") {
      direction = ir::Rule::Direction::kExport;
    } else if (attr.name == "mp-import") {
      direction = ir::Rule::Direction::kImport;
      mp = true;
    } else if (attr.name == "mp-export") {
      direction = ir::Rule::Direction::kExport;
      mp = true;
    } else {
      continue;
    }
    ParseContext rule_ctx = context_for(raw, diagnostics, attr.line);
    ir::Rule rule = parse_rule(attr.value, direction, mp, rule_ctx);
    (rule.is_import() ? imports : exports).push_back(std::move(rule));
  }
  an.imports = ir::RuleList(std::move(imports));
  an.exports = ir::RuleList(std::move(exports));
  return an;
}

std::optional<ir::AsSet> parse_as_set(const RawObjectView& raw,
                                      util::Diagnostics& diagnostics) {
  ParseContext ctx = context_for(raw, diagnostics);
  ir::AsSet set;
  set.name = ir::sym(raw.key);
  if (!ir::valid_as_set_name(raw.key)) {
    ctx.error(DiagnosticKind::kInvalidSetName,
              "invalid as-set name: '" + std::string(raw.key) + "'");
    // Keep the object: analyses still want to census it (§4 reports an
    // as-set named after the keyword AS-ANY).
  }
  for (auto value : raw.all("members")) {
    for (auto token : split_member_list(value, ctx)) {
      if (iequals(token, "ANY") || iequals(token, "AS-ANY")) {
        set.members.push_back(ir::AsSetMember::any());
      } else if (auto asn = ir::parse_as_ref(token)) {
        set.members.push_back(ir::AsSetMember::of_asn(*asn));
      } else if (ir::valid_as_set_name(token)) {
        set.members.push_back(ir::AsSetMember::of_set(ir::sym(token)));
      } else {
        ctx.syntax_error("invalid as-set member: '" + std::string(token) + "'");
      }
    }
  }
  set.mbrs_by_ref = symbol_list(raw, "mbrs-by-ref", ctx);
  set.mnt_by = symbol_list(raw, "mnt-by", ctx);
  set.source = ir::sym(raw.source);
  return set;
}

std::optional<ir::RouteSetMember> parse_route_set_member(std::string_view token,
                                                         const ParseContext& ctx) {
  if (iequals(token, "RS-ANY") || iequals(token, "AS-ANY") || iequals(token, "ANY")) {
    ir::RouteSetMember m;
    m.kind = ir::RouteSetMember::Kind::kAny;
    return m;
  }
  // Split a trailing range operator off set references; prefixes keep
  // theirs inside PrefixRange.
  std::string_view body = token;
  net::RangeOp op = net::RangeOp::none();
  if (const std::size_t caret = token.find('^'); caret != std::string_view::npos) {
    if (auto parsed = net::RangeOp::parse(token.substr(caret + 1))) {
      body = token.substr(0, caret);
      op = *parsed;
    }
  }
  ir::RouteSetMember m;
  if (auto prefix = net::PrefixRange::parse(token)) {
    m.kind = ir::RouteSetMember::Kind::kPrefix;
    m.prefix = *prefix;
    return m;
  }
  if (auto asn = ir::parse_as_ref(body)) {
    m.kind = ir::RouteSetMember::Kind::kAsn;
    m.asn = *asn;
    m.op = op;
    return m;
  }
  if (ir::valid_route_set_name(body)) {
    m.kind = ir::RouteSetMember::Kind::kRouteSet;
    m.name = ir::sym(body);
    m.op = op;
    return m;
  }
  if (ir::valid_as_set_name(body)) {
    m.kind = ir::RouteSetMember::Kind::kAsSet;
    m.name = ir::sym(body);
    m.op = op;
    return m;
  }
  ctx.syntax_error("invalid route-set member: '" + std::string(token) + "'");
  return std::nullopt;
}

std::optional<ir::RouteSet> parse_route_set(const RawObjectView& raw,
                                            util::Diagnostics& diagnostics) {
  ParseContext ctx = context_for(raw, diagnostics);
  ir::RouteSet set;
  set.name = ir::sym(raw.key);
  if (!ir::valid_route_set_name(raw.key)) {
    ctx.error(DiagnosticKind::kInvalidSetName,
              "invalid route-set name: '" + std::string(raw.key) + "'");
  }
  for (auto value : raw.all("members")) {
    for (auto token : split_member_list(value, ctx)) {
      if (auto m = parse_route_set_member(token, ctx)) set.members.push_back(std::move(*m));
    }
  }
  for (auto value : raw.all("mp-members")) {
    for (auto token : split_member_list(value, ctx)) {
      if (auto m = parse_route_set_member(token, ctx)) set.mp_members.push_back(std::move(*m));
    }
  }
  set.mbrs_by_ref = symbol_list(raw, "mbrs-by-ref", ctx);
  set.mnt_by = symbol_list(raw, "mnt-by", ctx);
  set.source = ir::sym(raw.source);
  return set;
}

std::optional<ir::PeeringSet> parse_peering_set(const RawObjectView& raw,
                                                util::Diagnostics& diagnostics) {
  ParseContext ctx = context_for(raw, diagnostics);
  ir::PeeringSet set;
  set.name = ir::sym(raw.key);
  if (!ir::valid_peering_set_name(raw.key)) {
    ctx.error(DiagnosticKind::kInvalidSetName,
              "invalid peering-set name: '" + std::string(raw.key) + "'");
  }
  auto parse_one = [&](std::string_view value, std::vector<ir::Peering>& out) {
    Cursor cur(value);
    auto peering = parse_peering(cur, ctx);
    if (peering && cur.at_end()) {
      out.push_back(std::move(*peering));
    } else if (peering) {
      ctx.syntax_error("trailing text in peering: '" + std::string(cur.remaining()) + "'");
    }
  };
  for (auto value : raw.all("peering")) parse_one(value, set.peerings);
  for (auto value : raw.all("mp-peering")) parse_one(value, set.mp_peerings);
  set.source = ir::sym(raw.source);
  return set;
}

std::optional<ir::FilterSet> parse_filter_set(const RawObjectView& raw,
                                              util::Diagnostics& diagnostics) {
  ParseContext ctx = context_for(raw, diagnostics);
  ir::FilterSet set;
  set.name = ir::sym(raw.key);
  if (!ir::valid_filter_set_name(raw.key)) {
    ctx.error(DiagnosticKind::kInvalidSetName,
              "invalid filter-set name: '" + std::string(raw.key) + "'");
  }
  if (auto value = raw.first("filter"); !value.empty()) {
    set.filter = parse_filter(value, ctx);
    set.has_filter = true;
  }
  if (auto value = raw.first("mp-filter"); !value.empty()) {
    set.mp_filter = parse_filter(value, ctx);
    set.has_mp_filter = true;
  }
  set.source = ir::sym(raw.source);
  return set;
}

std::optional<ir::RouteObject> parse_route(const RawObjectView& raw,
                                           util::Diagnostics& diagnostics, bool v6) {
  ParseContext ctx = context_for(raw, diagnostics);
  auto prefix = net::Prefix::parse(raw.key);
  if (!prefix) {
    ctx.error(DiagnosticKind::kInvalidAttribute,
              "invalid route prefix: '" + std::string(raw.key) + "'");
    return std::nullopt;
  }
  if (prefix->is_v4() == v6) {
    ctx.error(DiagnosticKind::kInvalidAttribute,
              "route prefix family does not match object class: '" +
                  std::string(raw.key) + "'");
    return std::nullopt;
  }
  auto origin = ir::parse_as_ref(trim(raw.first("origin")));
  if (!origin) {
    ctx.error(DiagnosticKind::kInvalidAttribute,
              "route " + std::string(raw.key) + " has invalid origin: '" +
                  std::string(raw.first("origin")) + "'");
    return std::nullopt;
  }
  ir::RouteObject route;
  route.prefix = *prefix;
  route.origin = *origin;
  route.member_of = symbol_list(raw, "member-of", ctx);
  route.mnt_by = symbol_list(raw, "mnt-by", ctx);
  route.source = ir::sym(raw.source);
  return route;
}

template <typename T>
ParsedObject wrap(std::optional<T> value) {
  if (!value) return std::monostate{};
  return std::move(*value);
}

}  // namespace

ir::Rule parse_rule(std::string_view text, ir::Rule::Direction direction, bool mp,
                    const ParseContext& ctx) {
  ir::Rule rule;
  rule.direction = direction;
  rule.mp = mp;
  rule.text = std::string(trim(text));

  Cursor cur(text);
  if (cur.eat_keyword("protocol")) rule.protocol = std::string(cur.next_atom());
  if (cur.eat_keyword("into")) rule.into = std::string(cur.next_atom());

  bool ok = true;
  rule.entry = parse_entry(cur, rule.is_import(), ctx, ok);
  if (!cur.at_end()) {
    ctx.syntax_error("trailing text in rule: '" + std::string(cur.remaining()) + "'");
  }
  return rule;
}

ParsedObject parse_object(const RawObjectView& raw, util::Diagnostics& diagnostics) {
  if (raw.class_name == "aut-num") return wrap(parse_aut_num(raw, diagnostics));
  if (raw.class_name == "as-set") return wrap(parse_as_set(raw, diagnostics));
  if (raw.class_name == "route-set") return wrap(parse_route_set(raw, diagnostics));
  if (raw.class_name == "peering-set") return wrap(parse_peering_set(raw, diagnostics));
  if (raw.class_name == "filter-set") return wrap(parse_filter_set(raw, diagnostics));
  if (raw.class_name == "route") return wrap(parse_route(raw, diagnostics, false));
  if (raw.class_name == "route6") return wrap(parse_route(raw, diagnostics, true));
  return std::monostate{};
}

ParsedObject parse_object(const RawObject& raw, util::Diagnostics& diagnostics) {
  std::vector<RawAttributeView> attrs;
  attrs.reserve(raw.attributes.size());
  for (const RawAttribute& attr : raw.attributes) {
    attrs.push_back({attr.name, attr.value, attr.line});
  }
  RawObjectView view;
  view.class_name = raw.class_name;
  view.key = raw.key;
  view.attributes = attrs;
  view.source = raw.source;
  view.line = raw.line;
  return parse_object(view, diagnostics);
}

}  // namespace rpslyzer::rpsl
