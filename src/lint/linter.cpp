#include "rpslyzer/lint/linter.hpp"

#include <algorithm>

#include "rpslyzer/ir/walk.hpp"
#include "rpslyzer/stats/census.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::lint {

namespace {

using util::overloaded;

const char* severity_name(LintSeverity s) {
  switch (s) {
    case LintSeverity::kInfo:
      return "info";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "?";
}

const char* site_name(ir::Site site) {
  switch (site) {
    case ir::Site::kPeering:
      return "peering";
    case ir::Site::kFilter:
      return "filter";
    case ir::Site::kAsPath:
      return "AS-path regex";
  }
  return "?";
}

class Linter {
 public:
  Linter(const ir::Ir& ir, const irr::Index& index, const LintOptions& options)
      : ir_(ir), index_(index), options_(options) {}

  std::vector<LintFinding> run() {
    if (options_.check_aut_nums) lint_aut_nums();
    if (options_.check_as_sets) lint_as_sets();
    if (options_.check_route_sets) lint_route_sets();
    if (options_.check_route_objects) lint_route_objects();
    std::sort(findings_.begin(), findings_.end(),
              [](const LintFinding& a, const LintFinding& b) {
                if (a.object != b.object) return a.object < b.object;
                return static_cast<int>(a.code) < static_cast<int>(b.code);
              });
    return std::move(findings_);
  }

 private:
  const ir::Ir& ir_;
  const irr::Index& index_;
  const LintOptions& options_;
  std::vector<LintFinding> findings_;

  void add(LintCode code, LintSeverity severity, std::string object, std::string message) {
    if (severity == LintSeverity::kInfo && !options_.include_info) return;
    findings_.push_back({code, severity, std::move(object), std::move(message)});
  }

  // --- aut-num checks -----------------------------------------------------

  void check_references(const ir::Entry& entry, const std::string& object) {
    // A missing-set-reference finding unless the named set was found.
    const auto defined = [&](bool found, ir::Site site, const char* kind,
                             std::string_view name) {
      if (found) return;
      add(LintCode::kRuleReferencesMissingSet, LintSeverity::kError, object,
          std::string(site_name(site)) + " references undefined " + kind + " " +
              std::string(name));
    };
    ir::walk(
        entry,
        overloaded{
            // Only a filter's AS64500^+ asks for that AS's route objects;
            // peering and AS-path ASNs name neighbors and path members.
            [&](const ir::AsnRef& r, ir::Site site) {
              if (site == ir::Site::kFilter && !index_.has_routes(r.asn)) {
                add(LintCode::kRuleReferencesZeroRouteAs, LintSeverity::kWarning, object,
                    "filter references AS" + std::to_string(r.asn) +
                        ", which originates no route objects; register route objects or "
                        "use a route-set");
              }
            },
            [&](const ir::AsSetRef& r, ir::Site site) {
              defined(index_.as_set(r.name) != nullptr, site, "as-set", r.name);
            },
            [&](const ir::PeeringSetRef& r, ir::Site site) {
              defined(index_.peering_set(r.name) != nullptr, site, "peering-set", r.name);
            },
            [&](const ir::FilterRouteSet& f, ir::Site site) {
              defined(index_.route_set(f.name) != nullptr, site, "route-set", f.name);
            },
            [&](const ir::FilterFilterSet& f, ir::Site site) {
              defined(index_.filter_set(f.name) != nullptr, site, "filter-set", f.name);
            },
            [&](const ir::FilterCommunity&, ir::Site) {
              add(LintCode::kSkippedConstruct, LintSeverity::kInfo, object,
                  "community() filters cannot be checked against collector routes "
                  "(communities may be stripped in flight)");
            },
            [&](const ir::FilterAsPath& f, ir::Site) {
              if (ir::uses_skipped_constructs(f.regex)) {
                add(LintCode::kSkippedConstruct, LintSeverity::kInfo, object,
                    "AS-path regex uses ASN ranges or same-pattern operators, which "
                    "verification tools commonly skip");
              }
            },
            [&](const ir::FilterUnknown& f, ir::Site) {
              add(LintCode::kUnparseableFilter, LintSeverity::kError, object,
                  "unparseable filter: '" + f.text + "'");
            },
            [](const auto&, ir::Site) {},
        });
  }

  void lint_aut_nums() {
    stats::MisusePatterns patterns = stats::MisusePatterns::compute(ir_);
    for (const auto& [asn, an] : ir_.aut_nums) {
      const std::string object = "aut-num:AS" + std::to_string(asn);
      if (an.imports.empty() && an.exports.empty()) {
        add(LintCode::kNoRules, LintSeverity::kInfo, object,
            "no import/export rules; neighbors cannot verify routes through this AS");
        continue;
      }
      if (patterns.export_self.contains(asn)) {
        add(LintCode::kExportSelfShape, LintSeverity::kWarning, object,
            "'export: to <peer> announce AS" + std::to_string(asn) +
                "' only covers self-originated routes; announce an as-set or route-set "
                "covering the customer cone instead");
      }
      if (patterns.import_customer.contains(asn)) {
        add(LintCode::kImportCustomerShape, LintSeverity::kWarning, object,
            "'import: from <C> accept <C>' only admits C's own route objects; accept C's "
            "customer-cone set if routes from C's customers are expected");
      }
      for (const auto* rules : {&an.imports, &an.exports}) {
        for (const auto& rule : *rules) check_references(rule.entry, object);
      }
    }
  }

  // --- as-set checks --------------------------------------------------------

  void lint_as_sets() {
    for (const auto& [name, set] : ir_.as_sets) {
      const std::string object = "as-set:" + name;
      if (util::iequals(name, "AS-ANY")) {
        add(LintCode::kReservedSetName, LintSeverity::kError, object,
            "a set must not be named after the reserved keyword AS-ANY");
      }
      if (set.members.empty() && set.mbrs_by_ref.empty()) {
        add(LintCode::kEmptyAsSet, LintSeverity::kWarning, object,
            "empty as-set; using it in a rule matches nothing");
      }
      if (set.members.size() == 1 && set.members[0].kind == ir::AsSetMember::Kind::kAsn &&
          set.mbrs_by_ref.empty()) {
        add(LintCode::kSingleMemberAsSet, LintSeverity::kInfo, object,
            "single-member as-set; rules could reference AS" +
                std::to_string(set.members[0].asn) + " directly");
      }
      for (const auto& member : set.members) {
        if (member.kind == ir::AsSetMember::Kind::kAny) {
          add(LintCode::kAsSetContainsAny, LintSeverity::kError, object,
              "member 'ANY' makes the set match every AS, which is almost never intended");
        }
        if (member.kind == ir::AsSetMember::Kind::kSet &&
            index_.as_set(ir::sym_view(member.name)) == nullptr) {
          add(LintCode::kAsSetMissingMember, LintSeverity::kError, object,
              "member set " + ir::to_string(member.name) + " is not defined in any IRR");
        }
      }
      const irr::FlattenedAsSet* flat = index_.flattened(name);
      if (flat != nullptr) {
        if (flat->has_loop) {
          add(LintCode::kAsSetLoop, LintSeverity::kWarning, object,
              "membership cycle detected; tools must guard against infinite recursion");
        }
        if (flat->depth >= 5) {
          add(LintCode::kAsSetDeepNesting, LintSeverity::kInfo, object,
              "member chain depth " + std::to_string(flat->depth) +
                  "; deeply nested sets are hard to audit manually");
        }
      }
    }
  }

  // --- route-set checks -------------------------------------------------------

  void lint_route_sets() {
    std::set<std::string, util::ILess> referenced;
    const auto collect = overloaded{
        [&](const ir::FilterRouteSet& f, ir::Site) { referenced.insert(f.name); },
        [](const auto&, ir::Site) {},
    };
    for (const auto& [asn, an] : ir_.aut_nums) {
      for (const auto* rules : {&an.imports, &an.exports}) {
        for (const auto& rule : *rules) ir::walk(rule.entry, collect);
      }
    }
    for (const auto& [name, set] : ir_.route_sets) {
      if (util::iequals(name, "RS-ANY")) {
        add(LintCode::kReservedSetName, LintSeverity::kError, "route-set:" + name,
            "a set must not be named after the reserved keyword RS-ANY");
      }
      if (!referenced.contains(name)) {
        add(LintCode::kRouteSetUnreferenced, LintSeverity::kInfo, "route-set:" + name,
            "defined but referenced by no rule");
      }
    }
  }

  // --- route-object checks ------------------------------------------------------

  void lint_route_objects() {
    std::map<net::Prefix, std::set<ir::Asn>> origins_by_prefix;
    for (const auto& route : ir_.routes) {
      origins_by_prefix[route.prefix].insert(route.origin);
    }
    for (const auto& [prefix, origins] : origins_by_prefix) {
      if (origins.size() > 1) {
        std::string list;
        for (ir::Asn asn : origins) {
          if (!list.empty()) list += ", ";
          list += "AS" + std::to_string(asn);
        }
        add(LintCode::kMultiOriginPrefix, LintSeverity::kWarning,
            "route:" + prefix.to_string(),
            "registered under multiple origins (" + list +
                "); stale or conflicting registrations hide the legitimate origin");
      }
    }
  }
};

}  // namespace

const char* to_string(LintCode code) noexcept {
  switch (code) {
    case LintCode::kNoRules:
      return "no-rules";
    case LintCode::kExportSelfShape:
      return "export-self-shape";
    case LintCode::kImportCustomerShape:
      return "import-customer-shape";
    case LintCode::kRuleReferencesMissingSet:
      return "missing-set-reference";
    case LintCode::kRuleReferencesZeroRouteAs:
      return "zero-route-as-reference";
    case LintCode::kSkippedConstruct:
      return "skipped-construct";
    case LintCode::kUnparseableFilter:
      return "unparseable-filter";
    case LintCode::kEmptyAsSet:
      return "empty-as-set";
    case LintCode::kSingleMemberAsSet:
      return "single-member-as-set";
    case LintCode::kAsSetContainsAny:
      return "as-set-contains-any";
    case LintCode::kAsSetLoop:
      return "as-set-loop";
    case LintCode::kAsSetDeepNesting:
      return "as-set-deep-nesting";
    case LintCode::kAsSetMissingMember:
      return "as-set-missing-member";
    case LintCode::kReservedSetName:
      return "reserved-set-name";
    case LintCode::kRouteSetUnreferenced:
      return "route-set-unreferenced";
    case LintCode::kAnnouncedPrefixUnregistered:
      return "announced-prefix-unregistered";
    case LintCode::kMultiOriginPrefix:
      return "multi-origin-prefix";
  }
  return "unknown";
}

std::vector<LintFinding> lint(const ir::Ir& ir, const irr::Index& index,
                              const LintOptions& options) {
  return Linter(ir, index, options).run();
}

std::string render(const std::vector<LintFinding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += std::string(severity_name(f.severity)) + " [" + to_string(f.code) + "] " +
           f.object + ": " + f.message + "\n";
  }
  return out;
}

}  // namespace rpslyzer::lint
