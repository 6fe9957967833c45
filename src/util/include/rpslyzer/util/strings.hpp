#pragma once
// String utilities shared across RPSLyzer modules.
//
// RPSL is case-insensitive for keywords and object names (RFC 2622 §2), so
// most helpers here come in case-insensitive flavours. All functions are
// ASCII-only on purpose: RPSL attribute values are ASCII per the RFC.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rpslyzer::util {

/// ASCII-lowercase a single character; non-letters pass through.
constexpr char to_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII-uppercase a single character; non-letters pass through.
constexpr char to_upper(char c) noexcept {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
}

constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

constexpr bool is_alpha(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

constexpr bool is_alnum(char c) noexcept { return is_alpha(c) || is_digit(c); }

/// Returns a lowercased copy of `s`.
std::string lower(std::string_view s);

/// Returns an uppercased copy of `s`.
std::string upper(std::string_view s);

/// Case-insensitive equality of two ASCII strings.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// Case-insensitive "does `s` start with `prefix`".
bool istarts_with(std::string_view s, std::string_view prefix) noexcept;

/// Case-insensitive "does `s` end with `suffix`".
bool iends_with(std::string_view s, std::string_view suffix) noexcept;

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Strip leading ASCII whitespace.
std::string_view trim_left(std::string_view s) noexcept;

/// Strip trailing ASCII whitespace.
std::string_view trim_right(std::string_view s) noexcept;

/// Split on a single character; empty fields are kept.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Split on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string_view> split_ws(std::string_view s);

/// Parse a decimal unsigned 32-bit integer; rejects signs, empty input,
/// overflow and trailing garbage.
std::optional<std::uint32_t> parse_u32(std::string_view s) noexcept;

/// The same for unsigned 64-bit integers.
std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;

/// Parse a decimal unsigned 8-bit integer (used for prefix lengths).
std::optional<std::uint8_t> parse_u8(std::string_view s) noexcept;

/// Case-insensitive ASCII hash, usable with unordered containers.
struct IHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept;
};

/// Case-insensitive ASCII equality, usable with unordered containers.
struct IEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return iequals(a, b);
  }
};

/// Case-insensitive less-than, usable with ordered containers.
struct ILess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept;
};

/// Helper for std::visit with lambda overload sets.
template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

}  // namespace rpslyzer::util
