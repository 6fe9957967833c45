#include "rpslyzer/net/ip.hpp"

#include <array>
#include <cstdio>

#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::net {

namespace {

std::optional<std::uint32_t> parse_v4_value(std::string_view text) noexcept {
  std::uint32_t value = 0;
  std::size_t dots = 0;
  for (std::size_t start = 0;; ++dots) {
    const std::size_t dot = text.find('.', start);
    const std::string_view part = text.substr(start, dot - start);
    if (dots > 3 || part.empty() || part.size() > 3) return std::nullopt;
    auto octet = util::parse_u32(part);
    if (!octet || *octet > 255) return std::nullopt;
    value = (value << 8) | *octet;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (dots != 3) return std::nullopt;
  return value;
}

std::optional<std::uint16_t> parse_hex_group(std::string_view text) noexcept {
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

std::optional<IpAddress> parse_v6(std::string_view text) noexcept {
  // Split at "::" if present; each side is a colon-separated group list.
  struct Groups {
    std::array<std::uint16_t, 8> values{};
    std::size_t size = 0;

    bool push(std::uint16_t value) noexcept {
      if (size == values.size()) return false;  // too many groups for any address
      values[size++] = value;
      return true;
    }
  };
  std::array<std::uint16_t, 8> groups{};
  std::size_t double_colon = text.find("::");
  Groups head;
  Groups tail;

  auto parse_groups = [](std::string_view part, Groups& out) noexcept -> bool {
    if (part.empty()) return true;
    for (std::size_t start = 0;;) {
      const std::size_t colon = part.find(':', start);
      const std::string_view field = part.substr(start, colon - start);
      const bool last = colon == std::string_view::npos;
      if (field.find('.') != std::string_view::npos) {
        // Embedded IPv4 tail, must be the last field.
        if (!last) return false;
        auto v4 = parse_v4_value(field);
        return v4 && out.push(static_cast<std::uint16_t>(*v4 >> 16)) &&
               out.push(static_cast<std::uint16_t>(*v4 & 0xFFFF));
      }
      auto group = parse_hex_group(field);
      if (!group || !out.push(*group)) return false;
      if (last) return true;
      start = colon + 1;
    }
  };

  if (double_colon == std::string_view::npos) {
    if (!parse_groups(text, head) || head.size != 8) return std::nullopt;
    groups = head.values;
  } else {
    std::string_view left = text.substr(0, double_colon);
    std::string_view right = text.substr(double_colon + 2);
    // Reject a second "::".
    if (right.find("::") != std::string_view::npos) return std::nullopt;
    if (!parse_groups(left, head) || !parse_groups(right, tail)) return std::nullopt;
    if (head.size + tail.size > 7) return std::nullopt;  // "::" covers >= 1 group
    for (std::size_t i = 0; i < head.size; ++i) groups[i] = head.values[i];
    for (std::size_t i = 0; i < tail.size; ++i) groups[8 - tail.size + i] = tail.values[i];
  }

  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (int i = 0; i < 4; ++i) hi = (hi << 16) | groups[static_cast<std::size_t>(i)];
  for (int i = 4; i < 8; ++i) lo = (lo << 16) | groups[static_cast<std::size_t>(i)];
  return IpAddress::v6(hi, lo);
}

}  // namespace

std::optional<IpAddress> IpAddress::parse(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  if (text.find(':') != std::string_view::npos) return parse_v6(text);
  auto v4 = parse_v4_value(text);
  if (!v4) return std::nullopt;
  return IpAddress::v4(*v4);
}

std::string IpAddress::to_string() const {
  char buf[48];
  if (is_v4()) {
    const std::uint32_t v = v4_value();
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (v >> 24) & 0xFF, (v >> 16) & 0xFF,
                  (v >> 8) & 0xFF, v & 0xFF);
    return buf;
  }
  std::array<std::uint16_t, 8> groups{};
  for (int i = 0; i < 4; ++i)
    groups[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(hi_ >> (48 - 16 * i));
  for (int i = 0; i < 4; ++i)
    groups[static_cast<std::size_t>(4 + i)] = static_cast<std::uint16_t>(lo_ >> (48 - 16 * i));

  // RFC 5952: compress the longest run of zero groups (length >= 2).
  int best_start = -1;
  int best_len = 0;
  int run_start = -1;
  int run_len = 0;
  for (int i = 0; i < 8; ++i) {
    if (groups[static_cast<std::size_t>(i)] == 0) {
      if (run_start < 0) run_start = i;
      ++run_len;
      if (run_len > best_len) {
        best_len = run_len;
        best_start = run_start;
      }
    } else {
      run_start = -1;
      run_len = 0;
    }
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      continue;
    }
    if (!out.empty() && out.back() != ':') out.push_back(':');
    std::snprintf(buf, sizeof buf, "%x", groups[static_cast<std::size_t>(i)]);
    out += buf;
    ++i;
  }
  return out;
}

}  // namespace rpslyzer::net
