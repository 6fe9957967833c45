// The table-dump and address parsers walk their input in place. This suite
// keeps the earlier split-based parsers verbatim as a reference and checks
// that both agree on seeded random input: the same DumpStats, the same
// routes, the same per-line issues and the same addresses.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "rpslyzer/bgp/route.hpp"
#include "rpslyzer/net/ip.hpp"
#include "rpslyzer/net/prefix.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::bgp {
namespace {

namespace reference {

std::optional<std::uint32_t> parse_v4_value(std::string_view text) {
  auto parts = util::split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (auto part : parts) {
    if (part.empty() || part.size() > 3) return std::nullopt;
    auto octet = util::parse_u32(part);
    if (!octet || *octet > 255) return std::nullopt;
    value = (value << 8) | *octet;
  }
  return value;
}

std::optional<std::uint16_t> parse_hex_group(std::string_view text) {
  if (text.empty() || text.size() > 4) return std::nullopt;
  std::uint32_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return static_cast<std::uint16_t>(value);
}

std::optional<net::IpAddress> parse_v6(std::string_view text) {
  std::array<std::uint16_t, 8> groups{};
  std::size_t double_colon = text.find("::");
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;

  auto parse_groups = [](std::string_view part, std::vector<std::uint16_t>& out) -> bool {
    if (part.empty()) return true;
    auto fields = util::split(part, ':');
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::string_view field = fields[i];
      if (field.find('.') != std::string_view::npos) {
        if (i + 1 != fields.size()) return false;
        auto v4 = parse_v4_value(field);
        if (!v4) return false;
        out.push_back(static_cast<std::uint16_t>(*v4 >> 16));
        out.push_back(static_cast<std::uint16_t>(*v4 & 0xFFFF));
        return true;
      }
      auto group = parse_hex_group(field);
      if (!group) return false;
      out.push_back(*group);
    }
    return true;
  };

  if (double_colon == std::string_view::npos) {
    if (!parse_groups(text, head) || head.size() != 8) return std::nullopt;
    for (std::size_t i = 0; i < 8; ++i) groups[i] = head[i];
  } else {
    std::string_view left = text.substr(0, double_colon);
    std::string_view right = text.substr(double_colon + 2);
    if (right.find("::") != std::string_view::npos) return std::nullopt;
    if (!parse_groups(left, head) || !parse_groups(right, tail)) return std::nullopt;
    if (head.size() + tail.size() > 7) return std::nullopt;
    for (std::size_t i = 0; i < head.size(); ++i) groups[i] = head[i];
    for (std::size_t i = 0; i < tail.size(); ++i) groups[8 - tail.size() + i] = tail[i];
  }

  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (int i = 0; i < 4; ++i) hi = (hi << 16) | groups[static_cast<std::size_t>(i)];
  for (int i = 4; i < 8; ++i) lo = (lo << 16) | groups[static_cast<std::size_t>(i)];
  return net::IpAddress::v6(hi, lo);
}

std::optional<net::IpAddress> parse_ip(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text.find(':') != std::string_view::npos) return parse_v6(text);
  auto v4 = parse_v4_value(text);
  if (!v4) return std::nullopt;
  return net::IpAddress::v4(*v4);
}

std::optional<net::Prefix> parse_prefix(std::string_view text) {
  text = util::trim(text);
  if (text.empty()) return std::nullopt;
  const std::size_t slash = text.rfind('/');
  std::string_view addr_part = (slash == std::string_view::npos) ? text : text.substr(0, slash);
  auto addr = parse_ip(addr_part);
  if (!addr) return std::nullopt;
  std::uint8_t len = net::max_prefix_len(addr->family());
  if (slash != std::string_view::npos) {
    auto parsed = util::parse_u8(text.substr(slash + 1));
    if (!parsed || *parsed > net::max_prefix_len(addr->family())) return std::nullopt;
    len = *parsed;
  }
  return net::Prefix(*addr, len);
}

std::optional<std::vector<Asn>> parse_path(std::string_view text, bool& has_as_set) {
  has_as_set = false;
  std::vector<Asn> path;
  if (text.find('{') != std::string_view::npos) {
    has_as_set = true;
    return std::nullopt;
  }
  for (auto token : util::split_ws(text)) {
    if (util::istarts_with(token, "AS")) token.remove_prefix(2);
    auto asn = util::parse_u32(token);
    if (!asn) return std::nullopt;
    path.push_back(*asn);
  }
  if (path.empty()) return std::nullopt;
  return strip_prepends(path);
}

std::optional<ParsedRoute> parse_table_dump_line(std::string_view line) {
  line = util::trim(line);
  if (line.empty() || line.front() == '#' || line.front() == '%') return std::nullopt;

  std::string_view prefix_field;
  std::string_view path_field;
  auto fields = util::split(line, '|');
  if (!fields.empty() && util::iequals(util::trim(fields[0]), "TABLE_DUMP2")) {
    if (fields.size() < 7) {
      return ParsedRoute{{}, RouteIssue::kMalformed};
    }
    prefix_field = util::trim(fields[5]);
    path_field = util::trim(fields[6]);
  } else if (fields.size() >= 2) {
    prefix_field = util::trim(fields[0]);
    path_field = util::trim(fields[1]);
  } else {
    return ParsedRoute{{}, RouteIssue::kMalformed};
  }

  auto prefix = parse_prefix(prefix_field);
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
  for (auto line : util::split(text, '\n')) {
    auto parsed = parse_table_dump_line(line);
    if (!parsed) continue;
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
    if (parsed->issue == RouteIssue::kOk) routes.push_back(std::move(parsed->route));
  }
  return routes;
}

}  // namespace reference

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }
  bool coin(std::size_t one_in) { return pick(one_in) == 0; }

  template <std::size_t N>
  std::string_view one_of(const std::array<std::string_view, N>& options) {
    return options[pick(N)];
  }

  std::string address() {
    static constexpr std::array<std::string_view, 20> kFixed = {
        "2001:db8::",  "::",         "1:2:3:4:5:6:7:8", "::ffff:1.2.3.4", "1::2::3",
        "g::",         "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "fe80::1:2.3.4.5", "1.2.3",
        "1.2.3.4.5",   "256.1.1.1", "01.2.3.4",        "1..2.3",         "",
        "1.2.3.4",     "::1:2:3:4:5:6:7", "1:2:3:4:5:6:1.2.3.4", "12345::", "a:b:c:d::e:f"};
    if (coin(3)) return std::string(one_of(kFixed));
    if (coin(2)) {
      std::string out;
      for (int i = 0; i < 4; ++i) {
        if (i > 0) out += '.';
        out += std::to_string(coin(20) ? 200 + pick(100) : pick(256));
      }
      return out;
    }
    // Random characters from the address alphabet.
    static constexpr std::string_view kAlphabet = "0123456789abcdefABCDEF::..x";
    std::string out;
    for (std::size_t n = pick(24); n > 0; --n) out += kAlphabet[pick(kAlphabet.size())];
    return out;
  }

  std::string prefix() {
    std::string out = address();
    if (!coin(6)) {
      out += "/" + (coin(10) ? std::string(coin(2) ? "" : "x") : std::to_string(pick(140)));
    }
    if (coin(10)) out = " " + out + "\t";
    return out;
  }

  std::string path() {
    std::string out;
    const std::size_t hops = coin(20) ? 60 + pick(40) : pick(8);
    std::uint32_t last = 0;
    for (std::size_t i = 0; i < hops; ++i) {
      if (i > 0) out += coin(10) ? "\t" : coin(10) ? "  " : " ";
      if (coin(60)) {
        out += "{" + std::to_string(pick(100)) + "," + std::to_string(pick(100)) + "}";
      } else if (coin(80)) {
        static constexpr std::array<std::string_view, 5> kBad = {"x", "4294967296", "AS", "-1",
                                                                "12345678901"};
        out += one_of(kBad);
      } else {
        // Prepending repeats the previous hop.
        if (i == 0 || !coin(3)) {
          last = coin(30) ? 4294967295u : static_cast<std::uint32_t>(1 + pick(70000));
        }
        if (coin(8)) out += coin(2) ? "AS" : "as";
        out += std::to_string(last);
      }
    }
    return out;
  }

  std::string line() {
    std::string out;
    switch (pick(10)) {
      case 0:
        out = coin(2) ? "# collector comment" : "% remark|1 2";
        break;
      case 1:
        out = coin(2) ? "" : "  \t ";
        break;
      case 2:
      case 3: {
        // bgpdump -m; some rows are cut short.
        out = coin(5) ? "table_dump2" : "TABLE_DUMP2";
        const std::size_t fields = coin(4) ? pick(7) : 7 + pick(8);
        for (std::size_t f = 1; f < fields; ++f) {
          out += '|';
          if (f == 5) {
            out += prefix();
          } else if (f == 6) {
            out += path();
          } else if (!coin(4)) {
            out += std::to_string(pick(100000));
          }
        }
        break;
      }
      default:
        out = prefix() + "|" + path();
        if (coin(8)) out += "|";
        if (coin(10)) out += "|IGP|extra";
        if (coin(20)) out = path();  // no separator at all
        break;
    }
    if (coin(6)) out = " " + out;
    if (coin(5)) out += "\r";
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

void expect_same_route(const Route& got, const Route& want) {
  EXPECT_EQ(got.prefix, want.prefix);
  EXPECT_EQ(got.path, want.path);
}

TEST(BgpParseReference, DumpsMatchTheSplitParser) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Gen gen(seed);
    std::string dump;
    for (std::size_t n = 300; n > 0; --n) dump += gen.line() + "\n";
    if (gen.coin(2)) dump += gen.line();  // no final newline

    DumpStats got_stats;
    DumpStats want_stats;
    const std::vector<Route> got = parse_table_dump(dump, &got_stats);
    const std::vector<Route> want = reference::parse_table_dump(dump, &want_stats);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(got_stats.total_lines, want_stats.total_lines);
    EXPECT_EQ(got_stats.routes, want_stats.routes);
    EXPECT_EQ(got_stats.single_as, want_stats.single_as);
    EXPECT_EQ(got_stats.with_as_set, want_stats.with_as_set);
    EXPECT_EQ(got_stats.malformed, want_stats.malformed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) expect_same_route(got[i], want[i]);
    // Every issue kind occurs, so the comparison covers each branch.
    EXPECT_GT(want_stats.routes, 0u);
    EXPECT_GT(want_stats.single_as + want_stats.with_as_set + want_stats.malformed, 0u);
  }
}

// The sharded parse of `dump` on `threads` workers must equal the split
// parser's: the same routes in the same order and every DumpStats field.
// The summed total_lines equal only if the shards neither overlap nor drop
// a line.
void expect_sharded_parse_matches(const std::string& dump, unsigned threads) {
  SCOPED_TRACE("threads " + std::to_string(threads) + ", " + std::to_string(dump.size()) +
               " bytes");
  DumpStats got_stats;
  DumpStats want_stats;
  const std::vector<Route> got = parse_table_dump(dump, &got_stats, threads);
  const std::vector<Route> want = reference::parse_table_dump(dump, &want_stats);
  EXPECT_EQ(got_stats.total_lines, want_stats.total_lines);
  EXPECT_EQ(got_stats.routes, want_stats.routes);
  EXPECT_EQ(got_stats.single_as, want_stats.single_as);
  EXPECT_EQ(got_stats.with_as_set, want_stats.with_as_set);
  EXPECT_EQ(got_stats.malformed, want_stats.malformed);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_same_route(got[i], want[i]);
}

constexpr std::array<unsigned, 5> kShardThreads = {1, 2, 3, 8, 64};

TEST(BgpParseReference, ShardedDumpsMatchTheSplitParser) {
  constexpr std::size_t kMiB = 1 << 20;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Gen gen(seed);
    std::string dump;
    while (dump.size() < kMiB) dump += gen.line() + "\n";
    std::string unterminated = dump + gen.line() + "2001:db8::/32|1 2";  // no final newline
    std::string crlf;
    for (char c : dump) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const unsigned threads : kShardThreads) {
      expect_sharded_parse_matches(dump, threads);
      expect_sharded_parse_matches(unterminated, threads);
      expect_sharded_parse_matches(crlf, threads);
    }
  }
}

TEST(BgpParseReference, ShardCutsAtEveryLineOffset) {
  // Equal 64-byte lines: as the tail grows a byte at a time, the cut points
  // size·w/workers move across a whole line, landing on the '\n', just
  // after it and everywhere between.
  std::string line = "10.0.0.0/8|64500 64501 64502";
  line.resize(63, ' ');
  line += '\n';
  std::string lines;
  for (int n = 0; n < 4096; ++n) lines += line;
  for (std::size_t tail = 0; tail <= 2 * line.size(); ++tail) {
    const std::string dump = lines + "192.0.2.0/24|64500 6" + std::string(tail, '4');
    for (const unsigned threads : {2u, 3u, 4u}) expect_sharded_parse_matches(dump, threads);
  }
}

TEST(BgpParseReference, ShardedParseEdgeCases) {
  Gen gen(5);
  std::string head;
  while (head.size() < 512 * 1024) head += gen.line() + "\n";
  // One route whose line is longer than any shard.
  std::string long_line = "198.51.100.0/24|";
  for (std::uint32_t asn = 1; long_line.size() < 600 * 1024; ++asn) {
    long_line += std::to_string(asn) + " ";
  }
  std::string comments;
  while (comments.size() < 1 << 20) comments += comments.size() % 3 == 0 ? "\n" : "# c\n\n";

  const std::vector<std::string> dumps = {
      head + long_line + "\n" + head,
      long_line,  // no '\n' at all
      comments,   // nothing but newlines and comments
      "",
      "\n",
  };
  for (const std::string& dump : dumps) {
    for (const unsigned threads : kShardThreads) expect_sharded_parse_matches(dump, threads);
  }
}

TEST(BgpParseReference, ShardedParseAddsToStats) {
  Gen gen(9);
  std::string dump;
  while (dump.size() < 256 * 1024) dump += gen.line() + "\n";
  DumpStats once;
  parse_table_dump(dump, &once, 4);
  DumpStats twice;
  parse_table_dump(dump, &twice, 4);
  parse_table_dump(dump, &twice, 1);
  EXPECT_GT(once.total_lines, 0u);
  EXPECT_EQ(twice.total_lines, 2 * once.total_lines);
  EXPECT_EQ(twice.routes, 2 * once.routes);
  EXPECT_EQ(twice.malformed, 2 * once.malformed);
}

TEST(BgpParseReference, LinesMatchTheSplitParser) {
  Gen gen(7);
  std::size_t long_paths = 0;
  for (int n = 0; n < 20000; ++n) {
    const std::string line = gen.line();
    const auto got = parse_table_dump_line(line);
    const auto want = reference::parse_table_dump_line(line);
    SCOPED_TRACE(line);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) continue;
    EXPECT_EQ(got->issue, want->issue);
    expect_same_route(got->route, want->route);
    if (want->route.path.size() > 64) ++long_paths;
  }
  // Paths longer than the parser's stack buffer were exercised.
  EXPECT_GT(long_paths, 0u);
}

TEST(BgpParseReference, AddressesMatchTheSplitParser) {
  Gen gen(11);
  for (int n = 0; n < 50000; ++n) {
    const std::string text = gen.address();
    SCOPED_TRACE(text);
    EXPECT_EQ(net::IpAddress::parse(text), reference::parse_ip(text));
    const std::string prefix = gen.prefix();
    EXPECT_EQ(net::Prefix::parse(prefix), reference::parse_prefix(prefix));
  }
}

}  // namespace
}  // namespace rpslyzer::bgp
