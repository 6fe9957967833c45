#pragma once
// AS classification by RPSL usage — another piece of the paper's stated
// future work (§7: "classifying ASes by RPSL usage"). Buckets each AS by
// how much policy it publishes and how expressive that policy is.

#include <map>

#include "rpslyzer/ir/objects.hpp"

namespace rpslyzer::lint {

enum class UsageClass : std::uint8_t {
  kAbsent,       // no aut-num object in any IRR
  kSilent,       // aut-num exists but declares no rules
  kMinimal,      // 1-2 simple rules (typically one upstream)
  kBasic,        // simple (BGPq4-compatible) rules only
  kExpressive,   // uses compound filters, structured policies, or regexes
  kPolicyRich,   // hundreds of rules (per-session/per-neighbor variants)
};

const char* to_string(UsageClass c) noexcept;

struct Classification {
  UsageClass usage = UsageClass::kAbsent;
  std::size_t rules = 0;
  std::size_t compound_rules = 0;  // not BGPq4-compatible
  bool uses_sets = false;          // a rule names an as-set, route-set, peering-set or
                                   // filter-set: in a peering, a filter or an AS-path regex
};

/// Classify one aut-num (pass nullptr for an AS with no aut-num).
Classification classify(const ir::AutNum* aut_num);

/// Classify a whole corpus; `universe` optionally adds ASes that appear in
/// BGP but not the IRRs (classified kAbsent).
std::map<ir::Asn, Classification> classify_all(const ir::Ir& ir,
                                               const std::vector<ir::Asn>& universe = {});

/// Count ASes per class.
std::map<UsageClass, std::size_t> histogram(const std::map<ir::Asn, Classification>& all);

}  // namespace rpslyzer::lint
