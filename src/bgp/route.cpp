#include "rpslyzer/bgp/route.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "rpslyzer/util/pool.hpp"
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

DumpStats& DumpStats::operator+=(const DumpStats& other) noexcept {
  total_lines += other.total_lines;
  routes += other.routes;
  single_as += other.single_as;
  with_as_set += other.with_as_set;
  malformed += other.malformed;
  return *this;
}

namespace {

/// A dump gets one shard per this many bytes at most: below it, starting a
/// thread costs more than the lines it would parse.
constexpr std::size_t kMinShardBytes = 64 * 1024;

/// The per-line loop of every shard; `text` holds whole lines.
void parse_lines(std::string_view text, std::vector<Route>& routes, DumpStats& stats) {
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t newline = text.find('\n', start);
    if (newline == std::string_view::npos) newline = text.size();
    auto parsed = parse_table_dump_line(text.substr(start, newline - start));
    start = newline + 1;
    if (!parsed) continue;
    ++stats.total_lines;
    switch (parsed->issue) {
      case RouteIssue::kOk:
        ++stats.routes;
        routes.push_back(std::move(parsed->route));
        break;
      case RouteIssue::kSingleAs:
        ++stats.single_as;
        break;
      case RouteIssue::kHasAsSet:
        ++stats.with_as_set;
        break;
      case RouteIssue::kMalformed:
        ++stats.malformed;
        break;
    }
  }
}

}  // namespace

std::vector<Route> parse_table_dump(std::string_view text, DumpStats* stats, unsigned threads) {
  // Shard w starts after the first '\n' at or after size·w/workers, so each
  // holds whole lines. A cut that would leave a shard empty (a line longer
  // than a shard, or no '\n' left) is dropped, which merges two shards.
  const std::size_t workers = std::min<std::size_t>(
      util::resolve_threads(threads), std::max<std::size_t>(1, text.size() / kMinShardBytes));
  std::vector<std::size_t> cuts{0};
  for (std::size_t w = 1; w < workers; ++w) {
    const std::size_t newline = text.find('\n', text.size() * w / workers);
    if (newline == std::string_view::npos) break;
    if (newline + 1 > cuts.back() && newline + 1 < text.size()) cuts.push_back(newline + 1);
  }
  cuts.push_back(text.size());

  const std::size_t shards = cuts.size() - 1;
  std::vector<std::vector<Route>> parts(shards);
  std::vector<DumpStats> part_stats(shards);
  util::run_on_pool(shards, [&](std::size_t s) {
    parse_lines(text.substr(cuts[s], cuts[s + 1] - cuts[s]), parts[s], part_stats[s]);
  });

  // Shard order is line order: concatenate by move.
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<Route> routes = std::move(parts[0]);
  routes.reserve(total);
  for (std::size_t s = 1; s < shards; ++s) {
    routes.insert(routes.end(), std::make_move_iterator(parts[s].begin()),
                  std::make_move_iterator(parts[s].end()));
  }
  if (stats != nullptr) {
    for (const DumpStats& part : part_stats) *stats += part;
  }
  return routes;
}

}  // namespace rpslyzer::bgp
