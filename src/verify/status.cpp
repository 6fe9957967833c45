#include "rpslyzer/verify/status.hpp"

namespace rpslyzer::verify {

const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::kVerified:
      return "verified";
    case Status::kSkip:
      return "skip";
    case Status::kUnrecorded:
      return "unrecorded";
    case Status::kRelaxed:
      return "relaxed";
    case Status::kSafelisted:
      return "safelisted";
    case Status::kUnverified:
      return "unverified";
  }
  return "unknown";
}

const char* to_string(Reason r) noexcept {
  switch (r) {
    case Reason::kMatchRemoteAsNum:
      return "MatchRemoteAsNum";
    case Reason::kMatchRemoteAsSet:
      return "MatchRemoteAsSet";
    case Reason::kMatchRemotePeeringSet:
      return "MatchRemotePeeringSet";
    case Reason::kMatchFilter:
      return "MatchFilter";
    case Reason::kMatchFilterAsNum:
      return "MatchFilterAsNum";
    case Reason::kMatchFilterAsSet:
      return "MatchFilterAsSet";
    case Reason::kMatchFilterRouteSet:
      return "MatchFilterRouteSet";
    case Reason::kMatchFilterPrefixes:
      return "MatchFilterPrefixes";
    case Reason::kMatchFilterAsPath:
      return "MatchFilterAsPath";
    case Reason::kUnrecordedAutNum:
      return "UnrecordedAutNum";
    case Reason::kUnrecordedNoRules:
      return "UnrecordedNoRules";
    case Reason::kUnrecordedAsSet:
      return "UnrecordedAsSet";
    case Reason::kUnrecordedRouteSet:
      return "UnrecordedRouteSet";
    case Reason::kUnrecordedPeeringSet:
      return "UnrecordedPeeringSet";
    case Reason::kUnrecordedFilterSet:
      return "UnrecordedFilterSet";
    case Reason::kUnrecordedZeroRouteAs:
      return "UnrecordedZeroRouteAs";
    case Reason::kRelaxedExportSelf:
      return "RelaxedExportSelf";
    case Reason::kRelaxedImportCustomer:
      return "RelaxedImportCustomer";
    case Reason::kRelaxedMissingRoutes:
      return "RelaxedMissingRoutes";
    case Reason::kSpecCustomerOnlyProviderPolicies:
      return "SpecCustomerOnlyProviderPolicies";
    case Reason::kSpecOtherOnlyProviderPolicies:
      return "SpecOtherOnlyProviderPolicies";
    case Reason::kSpecTier1Pair:
      return "SpecTier1Pair";
    case Reason::kSpecUphill:
      return "SpecUphill";
    case Reason::kSkipRegexConstruct:
      return "SkipRegexConstruct";
    case Reason::kSkipCommunityFilter:
      return "SkipCommunityFilter";
    case Reason::kSkipPrefixSetOp:
      return "SkipPrefixSetOp";
    case Reason::kSkipUnparsedFilter:
      return "SkipUnparsedFilter";
  }
  return "Unknown";
}

std::string to_string(const ReportItem& item) {
  std::string out = to_string(item.reason);
  const std::string_view name = item.name;
  if (item.asn != 0 && !name.empty()) {
    out += "(" + std::to_string(item.asn) + ", \"";
    out += name;
    out += "\")";
  } else if (item.asn != 0) {
    out += "(" + std::to_string(item.asn) + ")";
  } else if (!name.empty()) {
    out += "(\"";
    out += name;
    out += "\")";
  }
  return out;
}

namespace {

std::string check_line(const CheckResult& check, bool is_import, Asn from, Asn to) {
  const char* grade = nullptr;
  switch (check.status) {
    case Status::kVerified:
      grade = "Ok";
      break;
    case Status::kSkip:
      grade = "Skip";
      break;
    case Status::kUnrecorded:
      grade = "Unrec";
      break;
    case Status::kRelaxed:
    case Status::kSafelisted:
      grade = "Meh";
      break;
    case Status::kUnverified:
      grade = "Bad";
      break;
  }
  std::string out = std::string(grade) + (is_import ? "Import" : "Export") +
                    " { from: " + std::to_string(from) + ", to: " + std::to_string(to);
  if (!check.items.empty()) {
    out += ", items: [";
    bool first = true;
    for (const auto& item : check.items) {
      if (!first) out += ", ";
      first = false;
      out += to_string(item);
    }
    out += "]";
  }
  out += " }";
  return out;
}

}  // namespace

std::string to_report_lines(const HopCheck& hop) {
  return check_line(hop.export_result, false, hop.from, hop.to) + "\n" +
         check_line(hop.import_result, true, hop.from, hop.to) + "\n";
}

}  // namespace rpslyzer::verify
