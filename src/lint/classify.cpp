#include "rpslyzer/lint/classify.hpp"

#include "rpslyzer/ir/walk.hpp"
#include "rpslyzer/stats/bgpq4.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::lint {

namespace {

/// Does the entry name an as-set, route-set, peering-set or filter-set
/// anywhere: a peering, a filter leaf or an AS-path regex token?
bool entry_uses_sets(const ir::Entry& entry) {
  return !ir::walk(entry, util::overloaded{
                              [](const ir::AsSetRef&, ir::Site) { return false; },
                              [](const ir::PeeringSetRef&, ir::Site) { return false; },
                              [](const ir::FilterRouteSet&, ir::Site) { return false; },
                              [](const ir::FilterFilterSet&, ir::Site) { return false; },
                              [](const auto&, ir::Site) { return true; },
                          });
}

}  // namespace

const char* to_string(UsageClass c) noexcept {
  switch (c) {
    case UsageClass::kAbsent:
      return "absent";
    case UsageClass::kSilent:
      return "silent";
    case UsageClass::kMinimal:
      return "minimal";
    case UsageClass::kBasic:
      return "basic";
    case UsageClass::kExpressive:
      return "expressive";
    case UsageClass::kPolicyRich:
      return "policy-rich";
  }
  return "unknown";
}

Classification classify(const ir::AutNum* aut_num) {
  Classification out;
  if (aut_num == nullptr) {
    out.usage = UsageClass::kAbsent;
    return out;
  }
  out.rules = aut_num->imports.size() + aut_num->exports.size();
  for (const auto* rules : {&aut_num->imports, &aut_num->exports}) {
    for (const auto& rule : *rules) {
      if (!stats::bgpq4_compatible(rule)) ++out.compound_rules;
      if (!out.uses_sets && entry_uses_sets(rule.entry)) out.uses_sets = true;
    }
  }
  if (out.rules == 0) {
    out.usage = UsageClass::kSilent;
  } else if (out.rules > 200) {
    out.usage = UsageClass::kPolicyRich;
  } else if (out.compound_rules > 0) {
    out.usage = UsageClass::kExpressive;
  } else if (out.rules <= 2) {
    out.usage = UsageClass::kMinimal;
  } else {
    out.usage = UsageClass::kBasic;
  }
  return out;
}

std::map<ir::Asn, Classification> classify_all(const ir::Ir& ir,
                                               const std::vector<ir::Asn>& universe) {
  std::map<ir::Asn, Classification> out;
  for (const auto& [asn, an] : ir.aut_nums) out.emplace(asn, classify(&an));
  for (ir::Asn asn : universe) {
    if (!out.contains(asn)) out.emplace(asn, classify(nullptr));
  }
  return out;
}

std::map<UsageClass, std::size_t> histogram(const std::map<ir::Asn, Classification>& all) {
  std::map<UsageClass, std::size_t> out;
  for (const auto& [asn, c] : all) ++out[c.usage];
  return out;
}

}  // namespace rpslyzer::lint
