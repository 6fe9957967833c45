#pragma once
// IP address substrate: a single 128-bit value type covering IPv4 and IPv6.
//
// RPSL policies are address-family aware (afi specifiers, route vs route6),
// so the address type carries its family. Storage is two big-endian 64-bit
// halves, which makes prefix masking and comparison cheap; IPv4 addresses
// occupy the top 32 bits of `hi` so that prefix-length arithmetic is uniform
// across families.

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rpslyzer::net {

enum class Family : std::uint8_t { kIpv4, kIpv6 };

constexpr std::uint8_t max_prefix_len(Family f) noexcept {
  return f == Family::kIpv4 ? 32 : 128;
}

/// An IPv4 or IPv6 address. Value type, totally ordered within a family
/// (IPv4 sorts before IPv6).
class IpAddress {
 public:
  constexpr IpAddress() noexcept = default;
  constexpr IpAddress(Family family, std::uint64_t hi, std::uint64_t lo) noexcept
      : hi_(hi), lo_(lo), family_(family) {}

  /// Build an IPv4 address from a host-order 32-bit value.
  static constexpr IpAddress v4(std::uint32_t value) noexcept {
    return IpAddress(Family::kIpv4, static_cast<std::uint64_t>(value) << 32, 0);
  }

  /// Build an IPv6 address from two host-order 64-bit halves.
  static constexpr IpAddress v6(std::uint64_t hi, std::uint64_t lo) noexcept {
    return IpAddress(Family::kIpv6, hi, lo);
  }

  /// Parse dotted-quad IPv4 or RFC 4291 IPv6 (including "::" compression and
  /// embedded IPv4 tails). Returns nullopt on malformed input.
  static std::optional<IpAddress> parse(std::string_view text) noexcept;

  constexpr Family family() const noexcept { return family_; }
  constexpr bool is_v4() const noexcept { return family_ == Family::kIpv4; }
  constexpr std::uint64_t hi() const noexcept { return hi_; }
  constexpr std::uint64_t lo() const noexcept { return lo_; }

  /// The IPv4 value in host order; only meaningful when is_v4().
  constexpr std::uint32_t v4_value() const noexcept {
    return static_cast<std::uint32_t>(hi_ >> 32);
  }

  /// Bit `i` counting from the most significant bit (bit 0 = top bit).
  constexpr bool bit(std::uint8_t i) const noexcept {
    return i < 64 ? ((hi_ >> (63 - i)) & 1) != 0 : ((lo_ >> (127 - i)) & 1) != 0;
  }

  /// Zero out all bits below position `len` (keep the top `len` bits).
  constexpr IpAddress masked(std::uint8_t len) const noexcept {
    std::uint64_t hi = hi_;
    std::uint64_t lo = lo_;
    if (len >= 128) {
      // keep everything
    } else if (len == 64) {
      lo = 0;  // a 64-bit shift of the mask below would be undefined
    } else if (len > 64) {
      lo &= ~std::uint64_t{0} << (128 - len);
    } else {
      lo = 0;
      hi = (len == 0) ? 0 : hi & (~std::uint64_t{0} << (64 - len));
    }
    return IpAddress(family_, hi, lo);
  }

  /// Canonical text form ("192.0.2.1", "2001:db8::1").
  std::string to_string() const;

  friend constexpr auto operator<=>(const IpAddress& a, const IpAddress& b) noexcept {
    if (auto c = a.family_ <=> b.family_; c != 0) return c;
    if (auto c = a.hi_ <=> b.hi_; c != 0) return c;
    return a.lo_ <=> b.lo_;
  }
  friend constexpr bool operator==(const IpAddress&, const IpAddress&) noexcept = default;

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
  Family family_ = Family::kIpv4;
};

}  // namespace rpslyzer::net
