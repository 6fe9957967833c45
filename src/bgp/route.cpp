#include "rpslyzer/bgp/route.hpp"

#include <array>

#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::bgp {

const char* to_string(RouteIssue issue) noexcept {
  switch (issue) {
    case RouteIssue::kOk:
      return "ok";
    case RouteIssue::kSingleAs:
      return "single-as";
    case RouteIssue::kHasAsSet:
      return "as-set";
    case RouteIssue::kMalformed:
      return "malformed";
  }
  return "unknown";
}

std::vector<Asn> strip_prepends(const std::vector<Asn>& path) {
  std::vector<Asn> out;
  out.reserve(path.size());
  for (Asn asn : path) {
    if (out.empty() || out.back() != asn) out.push_back(asn);
  }
  return out;
}

std::optional<std::vector<Asn>> parse_path(std::string_view text, bool& has_as_set) {
  has_as_set = false;
  // AS_SET segments appear as "{1,2,3}" (bgpdump) — detect and flag.
  if (text.find('{') != std::string_view::npos) {
    has_as_set = true;
    return std::nullopt;
  }
  // Prepends are dropped as the tokens are read. A path collects on the
  // stack; one that outgrows the buffer (a handful in a full table) moves
  // to the heap.
  std::array<Asn, 64> stack;
  std::vector<Asn> heap;
  std::size_t n = 0;
  for (std::size_t i = 0;;) {
    while (i < text.size() && util::is_space(text[i])) ++i;
    if (i == text.size()) break;
    const std::size_t start = i;
    while (i < text.size() && !util::is_space(text[i])) ++i;
    std::string_view token = text.substr(start, i - start);
    // Accept both bare numbers and "AS123" spellings.
    if (util::istarts_with(token, "AS")) token.remove_prefix(2);
    const auto asn = util::parse_u32(token);
    if (!asn) return std::nullopt;
    if (n > 0 && (n <= stack.size() ? stack[n - 1] : heap.back()) == *asn) continue;
    if (n < stack.size()) {
      stack[n] = *asn;
    } else {
      if (n == stack.size()) heap.assign(stack.begin(), stack.end());
      heap.push_back(*asn);
    }
    ++n;
  }
  if (n == 0) return std::nullopt;
  if (n > stack.size()) return std::vector<Asn>(heap.begin(), heap.end());
  return std::vector<Asn>(stack.begin(), stack.begin() + static_cast<std::ptrdiff_t>(n));
}

std::optional<ParsedRoute> parse_table_dump_line(std::string_view line) {
  line = util::trim(line);
  if (line.empty() || line.front() == '#' || line.front() == '%') return std::nullopt;

  // The first seven '|' fields are all either format reads.
  std::array<std::string_view, 7> fields;
  std::size_t count = 0;
  for (std::size_t start = 0; count < fields.size();) {
    const std::size_t bar = line.find('|', start);
    fields[count++] = line.substr(start, bar - start);
    if (bar == std::string_view::npos) break;
    start = bar + 1;
  }

  std::string_view prefix_field;
  std::string_view path_field;
  if (util::iequals(util::trim(fields[0]), "TABLE_DUMP2")) {
    // bgpdump -m: TABLE_DUMP2|ts|B|peer-ip|peer-asn|prefix|path|origin|...
    if (count < 7) {
      return ParsedRoute{{}, RouteIssue::kMalformed};
    }
    prefix_field = util::trim(fields[5]);
    path_field = util::trim(fields[6]);
  } else if (count >= 2) {
    prefix_field = util::trim(fields[0]);
    path_field = util::trim(fields[1]);
  } else {
    return ParsedRoute{{}, RouteIssue::kMalformed};
  }

  auto prefix = net::Prefix::parse(prefix_field);
  if (!prefix) return ParsedRoute{{}, RouteIssue::kMalformed};

  bool has_as_set = false;
  auto path = parse_path(path_field, has_as_set);
  if (has_as_set) return ParsedRoute{{*prefix, {}}, RouteIssue::kHasAsSet};
  if (!path) return ParsedRoute{{*prefix, {}}, RouteIssue::kMalformed};

  ParsedRoute out{{*prefix, std::move(*path)}, RouteIssue::kOk};
  if (out.route.path.size() < 2) out.issue = RouteIssue::kSingleAs;
  return out;
}

std::vector<Route> parse_table_dump(std::string_view text, DumpStats* stats) {
  std::vector<Route> routes;
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t newline = text.find('\n', start);
    if (newline == std::string_view::npos) newline = text.size();
    auto parsed = parse_table_dump_line(text.substr(start, newline - start));
    start = newline + 1;
    if (!parsed) continue;
    if (stats != nullptr) {
      ++stats->total_lines;
      switch (parsed->issue) {
        case RouteIssue::kOk:
          ++stats->routes;
          break;
        case RouteIssue::kSingleAs:
          ++stats->single_as;
          break;
        case RouteIssue::kHasAsSet:
          ++stats->with_as_set;
          break;
        case RouteIssue::kMalformed:
          ++stats->malformed;
          break;
      }
    }
    if (parsed->issue == RouteIssue::kOk) routes.push_back(std::move(parsed->route));
  }
  return routes;
}

}  // namespace rpslyzer::bgp
