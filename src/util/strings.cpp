#include "rpslyzer/util/strings.hpp"

#include <limits>

namespace rpslyzer::util {

std::string lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(to_lower(c));
  return out;
}

std::string upper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(to_upper(c));
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (to_lower(a[i]) != to_lower(b[i])) return false;
  }
  return true;
}

bool istarts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && iequals(s.substr(0, prefix.size()), prefix);
}

bool iends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && iequals(s.substr(s.size() - suffix.size()), suffix);
}

std::string_view trim_left(std::string_view s) noexcept {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  return s.substr(i);
}

std::string_view trim_right(std::string_view s) noexcept {
  std::size_t n = s.size();
  while (n > 0 && is_space(s[n - 1])) --n;
  return s.substr(0, n);
}

std::string_view trim(std::string_view s) noexcept { return trim_right(trim_left(s)); }

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::optional<std::uint32_t> parse_u32(std::string_view s) noexcept {
  if (s.empty() || s.size() > 10) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : s) {
    if (!is_digit(c)) return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  return static_cast<std::uint32_t>(value);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : s) {
    if (!is_digit(c)) return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::uint8_t> parse_u8(std::string_view s) noexcept {
  auto v = parse_u32(s);
  if (!v || *v > std::numeric_limits<std::uint8_t>::max()) return std::nullopt;
  return static_cast<std::uint8_t>(*v);
}

std::size_t IHash::operator()(std::string_view s) const noexcept {
  // FNV-1a over lowercased bytes.
  std::size_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(to_lower(c));
    h *= 1099511628211ULL;
  }
  return h;
}

bool ILess::operator()(std::string_view a, std::string_view b) const noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char la = to_lower(a[i]);
    const char lb = to_lower(b[i]);
    if (la != lb) return la < lb;
  }
  return a.size() < b.size();
}

}  // namespace rpslyzer::util
