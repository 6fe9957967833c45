#include "rpslyzer/stats/census.hpp"

#include <algorithm>

#include "rpslyzer/ir/walk.hpp"
#include "rpslyzer/stats/bgpq4.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::stats {

namespace {

using util::overloaded;

/// Collected references from one rule, classified by where they appear.
struct References {
  std::set<Asn> asns_peering;
  std::set<Asn> asns_filter;
  std::set<std::string, util::ILess> as_sets_peering;
  std::set<std::string, util::ILess> as_sets_filter;
  std::set<std::string, util::ILess> route_sets_filter;
  std::set<std::string, util::ILess> peering_sets;
  std::set<std::string, util::ILess> filter_sets;
};

References collect_all_references(const ir::Ir& ir) {
  References refs;
  const auto collect = overloaded{
      [&](const ir::AsnRef& r, ir::Site site) {
        (site == ir::Site::kPeering ? refs.asns_peering : refs.asns_filter).insert(r.asn);
      },
      [&](const ir::AsSetRef& r, ir::Site site) {
        (site == ir::Site::kPeering ? refs.as_sets_peering : refs.as_sets_filter).emplace(r.name);
      },
      [&](const ir::PeeringSetRef& r, ir::Site) { refs.peering_sets.insert(r.name); },
      [&](const ir::FilterRouteSet& f, ir::Site) { refs.route_sets_filter.insert(f.name); },
      [&](const ir::FilterFilterSet& f, ir::Site) { refs.filter_sets.insert(f.name); },
      [](const auto&, ir::Site) {},
  };
  for (const auto& [asn, an] : ir.aut_nums) {
    for (const auto* rules : {&an.imports, &an.exports}) {
      for (const auto& rule : *rules) ir::walk(rule.entry, collect);
    }
  }
  return refs;
}

}  // namespace

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

RulesPerAutNum RulesPerAutNum::compute(const ir::Ir& ir) {
  RulesPerAutNum out;
  out.aut_num_count = ir.aut_nums.size();
  for (const auto& [asn, an] : ir.aut_nums) {
    const std::size_t rules = an.imports.size() + an.exports.size();
    ++out.all[rules];
    std::size_t compatible = 0;
    for (const auto* list : {&an.imports, &an.exports}) {
      for (const auto& rule : *list) {
        // Qualified: the member histogram shares the free function's name.
        if (rpslyzer::stats::bgpq4_compatible(rule)) ++compatible;
      }
    }
    ++out.bgpq4_compatible[compatible];
    if (rules == 0) ++out.zero_rule_aut_nums;
    if (rules >= 10) ++out.ten_plus_rule_aut_nums;
    if (rules > 1000) ++out.thousand_plus_rule_aut_nums;
  }
  return out;
}

std::vector<std::pair<std::size_t, double>> RulesPerAutNum::ccdf(
    const std::map<std::size_t, std::size_t>& histogram) {
  std::size_t total = 0;
  for (const auto& [value, count] : histogram) total += count;
  std::vector<std::pair<std::size_t, double>> points;
  if (total == 0) return points;
  std::size_t at_least = total;
  for (const auto& [value, count] : histogram) {
    points.emplace_back(value, static_cast<double>(at_least) / static_cast<double>(total));
    at_least -= count;
  }
  return points;
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

ReferenceCensus ReferenceCensus::compute(const ir::Ir& ir) {
  ReferenceCensus out;
  out.aut_nums.defined = ir.aut_nums.size();
  out.as_sets.defined = ir.as_sets.size();
  out.route_sets.defined = ir.route_sets.size();
  out.peering_sets.defined = ir.peering_sets.size();
  out.filter_sets.defined = ir.filter_sets.size();

  References refs = collect_all_references(ir);

  out.aut_nums.referenced_in_peering = refs.asns_peering.size();
  out.aut_nums.referenced_in_filter = refs.asns_filter.size();
  std::set<Asn> asns_overall = refs.asns_peering;
  asns_overall.insert(refs.asns_filter.begin(), refs.asns_filter.end());
  out.aut_nums.referenced_overall = asns_overall.size();

  out.as_sets.referenced_in_peering = refs.as_sets_peering.size();
  out.as_sets.referenced_in_filter = refs.as_sets_filter.size();
  std::set<std::string, util::ILess> sets_overall = refs.as_sets_peering;
  sets_overall.insert(refs.as_sets_filter.begin(), refs.as_sets_filter.end());
  out.as_sets.referenced_overall = sets_overall.size();

  out.route_sets.referenced_in_filter = refs.route_sets_filter.size();
  out.route_sets.referenced_overall = refs.route_sets_filter.size();

  out.peering_sets.referenced_in_peering = refs.peering_sets.size();
  out.peering_sets.referenced_overall = refs.peering_sets.size();

  out.filter_sets.referenced_in_filter = refs.filter_sets.size();
  out.filter_sets.referenced_overall = refs.filter_sets.size();
  return out;
}

// ---------------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------------

namespace {

void shape_of_entry(const ir::Entry& entry, ShapeCensus& out) {
  ir::for_each_factor(entry, [&](const ir::PolicyFactor& factor) {
    for (const auto& pa : factor.peerings) {
      ++out.peerings_total;
      const auto* spec = std::get_if<ir::PeeringSpec>(&pa.peering.node);
      if (spec != nullptr && (std::holds_alternative<ir::AsExprAsn>(spec->as_expr.node) ||
                              std::holds_alternative<ir::AsExprAny>(spec->as_expr.node))) {
        ++out.peerings_single_asn_or_any;
      }
    }
    ++out.filters_total;
    std::visit(overloaded{
                   [&](const ir::FilterAsSet&) { ++out.filters_as_set; },
                   [&](const ir::FilterAsNum&) { ++out.filters_asn; },
                   [&](const ir::FilterRouteSet&) { ++out.filters_route_set; },
                   [&](const ir::FilterAny&) { ++out.filters_any; },
                   [&](const ir::FilterPrefixes&) { ++out.filters_prefix_set; },
                   [&](const ir::FilterAsPath&) { ++out.filters_as_path; },
                   [&](const ir::FilterAnd&) { ++out.filters_compound; },
                   [&](const ir::FilterOr&) { ++out.filters_compound; },
                   [&](const ir::FilterNot&) { ++out.filters_compound; },
                   [&](const auto&) { ++out.filters_other; },
               },
               factor.filter.node);
  });
}

}  // namespace

ShapeCensus ShapeCensus::compute(const ir::Ir& ir) {
  ShapeCensus out;
  for (const auto& [asn, an] : ir.aut_nums) {
    const std::size_t rules = an.imports.size() + an.exports.size();
    if (rules == 0) continue;
    ++out.ases_with_rules;
    bool all_compatible = true;
    for (const auto* list : {&an.imports, &an.exports}) {
      for (const auto& rule : *list) {
        ++out.rules_total;
        if (bgpq4_compatible(rule)) {
          ++out.rules_bgpq4_compatible;
        } else {
          all_compatible = false;
        }
        shape_of_entry(rule.entry, out);
      }
    }
    if (all_compatible) ++out.ases_all_rules_bgpq4_compatible;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Route objects
// ---------------------------------------------------------------------------

RouteObjectStats RouteObjectStats::compute(const ir::Ir& ir) {
  RouteObjectStats out;
  struct PerPrefix {
    std::size_t objects = 0;
    std::set<Asn> origins;
    std::set<std::string, util::ILess> maintainers;
  };
  std::map<net::Prefix, PerPrefix> per_prefix;
  for (const auto& route : ir.routes) {
    ++out.route_objects;
    PerPrefix& entry = per_prefix[route.prefix];
    ++entry.objects;
    entry.origins.insert(route.origin);
    for (const ir::Symbol mnt : route.mnt_by) entry.maintainers.insert(ir::to_string(mnt));
  }
  out.unique_prefixes = per_prefix.size();
  for (const auto& [prefix, entry] : per_prefix) {
    if (entry.objects > 1) ++out.prefixes_with_multiple_objects;
    if (entry.origins.size() > 1) ++out.prefixes_with_multiple_origins;
    if (entry.maintainers.size() > 1) ++out.prefixes_with_multiple_maintainers;
  }
  return out;
}

// ---------------------------------------------------------------------------
// as-sets
// ---------------------------------------------------------------------------

AsSetStats AsSetStats::compute(const ir::Ir& ir, const irr::Index& index) {
  AsSetStats out;
  out.total = ir.as_sets.size();
  for (const auto& [name, set] : ir.as_sets) {
    if (set.members.empty() && set.mbrs_by_ref.empty()) ++out.empty;
    if (set.members.size() == 1 && set.members[0].kind == ir::AsSetMember::Kind::kAsn) {
      ++out.single_member;
    }
    bool has_any = false;
    bool recursive = false;
    for (const auto& member : set.members) {
      has_any = has_any || member.kind == ir::AsSetMember::Kind::kAny;
      recursive = recursive || member.kind == ir::AsSetMember::Kind::kSet;
    }
    if (has_any) ++out.with_any_keyword;
    if (recursive) ++out.recursive;
    const irr::FlattenedAsSet* flat = index.flattened(name);
    if (flat != nullptr) {
      if (flat->asns.size() > 10000) ++out.huge;
      if (flat->has_loop) ++out.in_loops;
      if (flat->depth >= 5) ++out.depth_5_plus;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

ErrorCensus ErrorCensus::compute(const util::Diagnostics& diagnostics, const ir::Ir& ir) {
  ErrorCensus out;
  out.syntax_errors = diagnostics.count(util::DiagnosticKind::kSyntaxError);
  for (const auto& d : diagnostics.all()) {
    if (d.kind != util::DiagnosticKind::kInvalidSetName) continue;
    if (d.object_key.starts_with("as-set:")) ++out.invalid_as_set_names;
    if (d.object_key.starts_with("route-set:")) ++out.invalid_route_set_names;
  }
  (void)ir;
  return out;
}

// ---------------------------------------------------------------------------
// Appendix E patterns
// ---------------------------------------------------------------------------

namespace {

/// The single-ASN remote of a simple one-peering term, or 0.
Asn simple_remote(const ir::PolicyFactor& factor) {
  if (factor.peerings.size() != 1) return 0;
  const auto* spec = std::get_if<ir::PeeringSpec>(&factor.peerings[0].peering.node);
  if (spec == nullptr) return 0;
  const auto* asn = std::get_if<ir::AsExprAsn>(&spec->as_expr.node);
  return asn == nullptr ? 0 : asn->asn;
}

}  // namespace

MisusePatterns MisusePatterns::compute(const ir::Ir& ir) {
  MisusePatterns out;
  for (const auto& [asn, an] : ir.aut_nums) {
    for (const auto& rule : an.imports) {
      const auto* term = std::get_if<ir::EntryTerm>(&rule.entry.node);
      if (term == nullptr) continue;
      for (const auto& factor : term->factors) {
        const Asn remote = simple_remote(factor);
        if (remote == 0) continue;
        const auto* filter_asn = std::get_if<ir::FilterAsNum>(&factor.filter.node);
        const bool peeras = std::holds_alternative<ir::FilterPeerAs>(factor.filter.node);
        if (peeras || (filter_asn != nullptr && filter_asn->asn == remote)) {
          out.import_customer.insert(asn);
        }
      }
    }
    for (const auto& rule : an.exports) {
      const auto* term = std::get_if<ir::EntryTerm>(&rule.entry.node);
      if (term == nullptr) continue;
      for (const auto& factor : term->factors) {
        if (simple_remote(factor) == 0) continue;
        const auto* filter_asn = std::get_if<ir::FilterAsNum>(&factor.filter.node);
        if (filter_asn != nullptr && filter_asn->asn == asn) out.export_self.insert(asn);
      }
    }
  }
  return out;
}

}  // namespace rpslyzer::stats
