#include "rpslyzer/verify/status.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

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

// Items that join a MatchRemoteAsNum run: everything but the ASN is implied.
bool in_run(const ReportItem& item) noexcept {
  return item.reason == Reason::kMatchRemoteAsNum && item.name.empty();
}

}  // namespace

ReportItems::ReportItems(std::span<const ReportItem> head, std::span<const ReportItem> tail) {
  const std::span<const ReportItem> parts[] = {head, tail};
  std::size_t words = 0;
  bool run = false;
  for (const auto part : parts) {
    for (const ReportItem& item : part) {
      const bool joins = in_run(item);
      words += joins ? (run ? 1 : 2) : 3;
      run = joins;
    }
  }
  if (words > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ReportItems: too many items");
  }
  size_ = static_cast<std::uint32_t>(head.size() + tail.size());
  words_ = static_cast<std::uint32_t>(words);
  std::uint32_t* out = inline_;
  if (on_heap()) out = heap_ = new std::uint32_t[words];
  std::uint32_t* header = nullptr;  // the open run's header, if any
  for (const auto part : parts) {
    for (const ReportItem& item : part) {
      if (in_run(item)) {
        if (header == nullptr) {
          header = out++;
          *header = kRunTag;
        }
        ++*header;
        *out++ = item.asn;
      } else {
        header = nullptr;
        *out++ = static_cast<std::uint32_t>(item.reason);
        *out++ = item.asn;
        *out++ = item.name.id();
      }
    }
  }
}

ReportItems::ReportItems(std::span<const Asn> run, const std::optional<ReportItem>& tail) {
  // The tail joins the run when it is a peer miss itself.
  const bool joins = tail && in_run(*tail);
  const std::size_t count = run.size() + (joins ? 1 : 0);
  if (count > ~kRunTag) throw std::length_error("ReportItems: too many items");
  const std::size_t words = (count > 0 ? 1 + count : 0) + (tail && !joins ? 3 : 0);
  size_ = static_cast<std::uint32_t>(run.size() + (tail ? 1 : 0));
  words_ = static_cast<std::uint32_t>(words);
  std::uint32_t* out = inline_;
  if (on_heap()) out = heap_ = new std::uint32_t[words];
  if (count > 0) {
    *out++ = kRunTag | static_cast<std::uint32_t>(count);
    if (!run.empty()) std::memcpy(out, run.data(), run.size_bytes());
    out += run.size();
  }
  if (joins) {
    *out = tail->asn;
  } else if (tail) {
    out[0] = static_cast<std::uint32_t>(tail->reason);
    out[1] = tail->asn;
    out[2] = tail->name.id();
  }
}

ReportItems::ReportItems(const ReportItems& other) : size_(other.size_), words_(other.words_) {
  std::uint32_t* out = inline_;
  if (on_heap()) out = heap_ = new std::uint32_t[words_];
  std::copy_n(other.data(), words_, out);
}

ReportItems::ReportItems(ReportItems&& other) noexcept { take(other); }

ReportItems& ReportItems::operator=(ReportItems other) noexcept {
  if (on_heap()) delete[] heap_;
  take(other);
  return *this;
}

void ReportItems::take(ReportItems& other) noexcept {
  size_ = other.size_;
  words_ = other.words_;
  if (on_heap()) {
    heap_ = other.heap_;
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
  other.size_ = 0;
  other.words_ = 0;
}

ReportItem ReportItems::operator[](std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ReportItems: index out of range");
  return *std::next(begin(), static_cast<std::ptrdiff_t>(i));
}

void ReportItems::push_back(const ReportItem& item) {
  std::vector<ReportItem> all(begin(), end());
  all.push_back(item);
  *this = ReportItems(all);
}

bool operator==(const ReportItems& a, const ReportItems& b) noexcept {
  return a.size_ == b.size_ && a.words_ == b.words_ &&
         std::equal(a.data(), a.data() + a.words_, b.data());
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
