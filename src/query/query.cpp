#include "rpslyzer/query/query.hpp"

#include <algorithm>

#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::query {

namespace {

using util::iequals;
using util::trim;

std::string not_found() { return "D\n"; }
std::string empty_success() { return "C\n"; }
std::string error(std::string_view why) { return "F " + std::string(why) + "\n"; }

/// Per-op evaluation counters. The op alphabet is compiled in (bounded
/// cardinality); handles resolve once and recording is a relaxed fetch_add.
struct OpCounters {
  obs::Counter& g;
  obs::Counter& v6;
  obs::Counter& i;
  obs::Counter& a;
  obs::Counter& o;
  obs::Counter& other;

  static obs::Counter& make(const char* op) {
    return obs::MetricsRegistry::global().counter(
        "rpslyzer_query_evaluations_total", "Query-engine evaluations by operation",
        {{"op", op}});
  }
  static OpCounters& get() {
    static OpCounters* counters = new OpCounters{make("g"), make("6"), make("i"),
                                                 make("a"), make("o"), make("other")};
    return *counters;
  }
};

/// Join a list with single spaces (IRRd's data format).
template <typename Range, typename Render>
std::string join(const Range& range, Render render) {
  std::string out;
  for (const auto& element : range) {
    if (!out.empty()) out.push_back(' ');
    out += render(element);
  }
  return out;
}

}  // namespace

std::optional<std::span<const ir::Asn>> QueryEngine::flat_asns(std::string_view name) const {
  const compile::CompiledAsSet* flat = snapshot_.flattened(name);
  if (flat == nullptr) return std::nullopt;
  return flat->asns;
}

std::string frame_response(std::string_view payload) {
  if (payload.empty()) return empty_success();
  // IRRd counts the payload bytes including the trailing newline.
  std::string data = std::string(payload);
  if (data.back() != '\n') data.push_back('\n');
  return "A" + std::to_string(data.size()) + "\n" + data + "C\n";
}

std::string QueryEngine::origin_prefixes(std::string_view arg, bool v6) const {
  auto asn = ir::parse_as_ref(trim(arg));
  if (!asn) return error("expected an AS number");
  std::span<const net::Prefix> prefixes = index().origins_of(*asn);
  std::vector<std::string> matching;
  for (const auto& prefix : prefixes) {
    if (prefix.is_v4() != v6) matching.push_back(prefix.to_string());
  }
  if (matching.empty()) {
    // Distinguish "AS unknown to the registry" from "no prefixes of this
    // family": IRRd returns D for keys with no data at all.
    return prefixes.empty() ? not_found() : empty_success();
  }
  return frame_response(join(matching, [](const std::string& s) { return s; }));
}

std::string QueryEngine::set_members(std::string_view arg) const {
  arg = trim(arg);
  bool recursive = false;
  if (arg.size() >= 2 && arg.substr(arg.size() - 2) == ",1") {
    recursive = true;
    arg = arg.substr(0, arg.size() - 2);
  }

  if (const ir::AsSet* set = index().as_set(arg)) {
    if (recursive) {
      const auto asns = flat_asns(arg);
      if (!asns) return not_found();
      return frame_response(
          join(*asns, [](ir::Asn asn) { return "AS" + std::to_string(asn); }));
    }
    std::vector<std::string> members;
    for (const auto& member : set->members) {
      switch (member.kind) {
        case ir::AsSetMember::Kind::kAsn:
          members.push_back("AS" + std::to_string(member.asn));
          break;
        case ir::AsSetMember::Kind::kSet:
          members.push_back(ir::to_string(member.name));
          break;
        case ir::AsSetMember::Kind::kAny:
          members.push_back("ANY");
          break;
      }
    }
    return members.empty() ? empty_success()
                           : frame_response(join(members, [](const std::string& s) {
                               return s;
                             }));
  }

  if (const ir::RouteSet* set = index().route_set(arg)) {
    std::vector<std::string> members;
    for (const auto* list : {&set->members, &set->mp_members}) {
      for (const auto& member : *list) {
        switch (member.kind) {
          case ir::RouteSetMember::Kind::kPrefix:
            members.push_back(member.prefix.to_string());
            break;
          case ir::RouteSetMember::Kind::kRouteSet:
          case ir::RouteSetMember::Kind::kAsSet:
            members.push_back(ir::to_string(member.name) + member.op.to_string());
            break;
          case ir::RouteSetMember::Kind::kAsn:
            members.push_back("AS" + std::to_string(member.asn) + member.op.to_string());
            break;
          case ir::RouteSetMember::Kind::kAny:
            members.push_back("RS-ANY");
            break;
        }
      }
    }
    return members.empty() ? empty_success()
                           : frame_response(join(members, [](const std::string& s) {
                               return s;
                             }));
  }
  return not_found();
}

std::string QueryEngine::set_prefixes(std::string_view arg) const {
  arg = trim(arg);
  bool want_v4 = true;
  bool want_v6 = true;
  if (!arg.empty() && arg.front() == '4') {
    want_v6 = false;
    arg = trim(arg.substr(1));
  } else if (!arg.empty() && arg.front() == '6') {
    want_v4 = false;
    arg = trim(arg.substr(1));
  }
  const auto flat = flat_asns(arg);
  if (!flat) {
    // A bare ASN is also accepted (an as-set of one).
    if (auto asn = ir::parse_as_ref(arg)) {
      std::span<const net::Prefix> prefixes = index().origins_of(*asn);
      if (prefixes.empty()) return not_found();
      std::vector<std::string> out;
      for (const auto& prefix : prefixes) {
        if ((prefix.is_v4() && want_v4) || (!prefix.is_v4() && want_v6)) {
          out.push_back(prefix.to_string());
        }
      }
      return out.empty() ? empty_success()
                         : frame_response(join(out, [](const std::string& s) { return s; }));
    }
    return not_found();
  }
  std::vector<std::string> out;
  for (ir::Asn asn : *flat) {
    for (const auto& prefix : index().origins_of(asn)) {
      if ((prefix.is_v4() && want_v4) || (!prefix.is_v4() && want_v6)) {
        out.push_back(prefix.to_string());
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out.empty() ? empty_success()
                     : frame_response(join(out, [](const std::string& s) { return s; }));
}

std::string QueryEngine::aut_num_summary(std::string_view arg) const {
  auto asn = ir::parse_as_ref(trim(arg));
  if (!asn) return error("expected an AS number");
  const ir::AutNum* an = index().aut_num(*asn);
  if (an == nullptr) return not_found();
  std::string payload = "aut-num AS" + std::to_string(*asn) + " source " + ir::to_string(an->source) +
                        " imports " + std::to_string(an->imports.size()) + " exports " +
                        std::to_string(an->exports.size());
  return frame_response(payload);
}

std::string QueryEngine::evaluate(std::string_view line) const {
  line = trim(line);
  if (!line.empty() && line.front() == '!') line.remove_prefix(1);
  if (line.empty()) return error("empty query");
  const char op = line.front();
  std::string_view arg = line.substr(1);
  OpCounters& ops = OpCounters::get();
  switch (op) {
    case 'g':
      ops.g.inc();
      return origin_prefixes(arg, /*v6=*/false);
    case '6':
      ops.v6.inc();
      return origin_prefixes(arg, /*v6=*/true);
    case 'i':
      ops.i.inc();
      return set_members(arg);
    case 'a':
      ops.a.inc();
      return set_prefixes(arg);
    case 'o':
      ops.o.inc();
      return aut_num_summary(arg);
    default:
      ops.other.inc();
      return error("unsupported query");
  }
}

}  // namespace rpslyzer::query
