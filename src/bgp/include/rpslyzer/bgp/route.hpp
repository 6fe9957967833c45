#pragma once
// BGP route substrate: table-dump parsing and AS-path normalization.
//
// The paper verifies routes observed at RIPE RIS and RouteViews collectors
// (§5): "For each observed BGP route, we extract the AS-path A and prefix
// P, removing prepended ASes. We ignore 0.06% of single-AS routes ... We
// also ignore 0.03% of routes whose AS-paths contain BGP AS-sets." This
// module implements exactly that preprocessing.
//
// Two text formats are accepted:
//  * simple pipe format "prefix|asn asn asn ..." (our synthetic dumps);
//  * bgpdump -m TABLE_DUMP2 lines
//    "TABLE_DUMP2|<ts>|B|<peer-ip>|<peer-asn>|<prefix>|<path>|<origin>|..."

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rpslyzer/net/prefix.hpp"

namespace rpslyzer::bgp {

using Asn = std::uint32_t;

/// One BGP route: destination prefix plus AS path in BGP order (element 0 =
/// the collector peer / most recent hop, last element = origin AS).
struct Route {
  net::Prefix prefix;
  std::vector<Asn> path;

  Asn origin() const noexcept { return path.empty() ? 0 : path.back(); }
  friend bool operator==(const Route&, const Route&) = default;
};

/// Why a route was excluded from verification.
enum class RouteIssue : std::uint8_t {
  kOk,
  kSingleAs,    // directly exported by a collector peer: no inter-AS link
  kHasAsSet,    // AS_SET segment in the path (deprecated, RFC 6472)
  kMalformed,   // unparsable prefix or path
};

const char* to_string(RouteIssue issue) noexcept;

struct ParsedRoute {
  Route route;
  RouteIssue issue = RouteIssue::kOk;
};

/// Remove prepending: collapse consecutive duplicate ASNs.
std::vector<Asn> strip_prepends(const std::vector<Asn>& path);

/// Parse one AS-path string; prepends removed. nullopt on malformed input;
/// `has_as_set` reports "{...}" AS_SET segments (path still unusable).
std::optional<std::vector<Asn>> parse_path(std::string_view text, bool& has_as_set);

/// Parse one table-dump line (either accepted format). Empty/comment lines
/// return nullopt; otherwise a ParsedRoute whose issue reflects the checks
/// above.
std::optional<ParsedRoute> parse_table_dump_line(std::string_view line);

/// Counters over a full dump parse.
struct DumpStats {
  std::size_t total_lines = 0;
  std::size_t routes = 0;       // usable routes (issue == kOk)
  std::size_t single_as = 0;
  std::size_t with_as_set = 0;
  std::size_t malformed = 0;

  DumpStats& operator+=(const DumpStats& other) noexcept;
};

/// Parse a whole dump; only usable routes are returned, in line order, and
/// `stats` (when given) is added to. The text is cut into line-aligned
/// shards parsed on `threads` workers (0 = the hardware concurrency), the
/// calling thread being one of them. A shard spans at least 64 KiB, so a
/// dump under 128 KiB is parsed on the calling thread alone. Every thread
/// count returns the same routes and stats.
std::vector<Route> parse_table_dump(std::string_view text, DumpStats* stats = nullptr,
                                    unsigned threads = 0);

}  // namespace rpslyzer::bgp
