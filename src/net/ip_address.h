// IP address value type supporting both IPv4 and IPv6.
//
// SilkRoad must size its tables for both families: an IPv6 ConnTable entry
// would naively need a 37-byte 5-tuple key and an 18-byte DIP action, which is
// what motivates the digest/version compression (paper §4.2). The address type
// therefore exposes exact on-the-wire byte widths for the memory model.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace silkroad::net {

enum class IpFamily : std::uint8_t { kV4 = 4, kV6 = 6 };

/// Number of address bytes on the wire for a family (4 or 16).
constexpr std::size_t address_bytes(IpFamily family) noexcept {
  return family == IpFamily::kV4 ? 4 : 16;
}

/// Immutable IPv4/IPv6 address. IPv4 addresses occupy the first 4 bytes of
/// the internal buffer; the remainder is zero so that comparison and hashing
/// are uniform across families.
class IpAddress {
 public:
  /// Default-constructs the IPv4 unspecified address 0.0.0.0.
  constexpr IpAddress() noexcept = default;

  /// Builds an IPv4 address from a host-order 32-bit value
  /// (e.g. 0x0A000001 == 10.0.0.1).
  static constexpr IpAddress v4(std::uint32_t host_order) noexcept {
    IpAddress a;
    a.family_ = IpFamily::kV4;
    a.bytes_[0] = static_cast<std::uint8_t>(host_order >> 24);
    a.bytes_[1] = static_cast<std::uint8_t>(host_order >> 16);
    a.bytes_[2] = static_cast<std::uint8_t>(host_order >> 8);
    a.bytes_[3] = static_cast<std::uint8_t>(host_order);
    return a;
  }

  /// Builds an IPv6 address from 16 network-order bytes.
  static constexpr IpAddress v6(const std::array<std::uint8_t, 16>& bytes) noexcept {
    IpAddress a;
    a.family_ = IpFamily::kV6;
    a.bytes_ = bytes;
    return a;
  }

  /// Builds an IPv6 address from two host-order 64-bit halves (hi = first
  /// 8 bytes on the wire). Convenient for synthetic address generation.
  static constexpr IpAddress v6(std::uint64_t hi, std::uint64_t lo) noexcept {
    std::array<std::uint8_t, 16> b{};
    for (int i = 0; i < 8; ++i) {
      b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(hi >> (56 - 8 * i));
      b[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(lo >> (56 - 8 * i));
    }
    return v6(b);
  }

  /// Parses dotted-quad IPv4 ("10.0.0.1") or full/abbreviated-"::" IPv6
  /// ("2001:db8::1"). Returns nullopt on malformed input.
  static std::optional<IpAddress> parse(std::string_view text);

  constexpr IpFamily family() const noexcept { return family_; }
  constexpr bool is_v4() const noexcept { return family_ == IpFamily::kV4; }
  constexpr bool is_v6() const noexcept { return family_ == IpFamily::kV6; }

  /// Address width on the wire: 4 (IPv4) or 16 (IPv6) bytes.
  constexpr std::size_t wire_bytes() const noexcept { return address_bytes(family_); }

  /// Raw bytes; for IPv4 only the first 4 are meaningful (rest are zero).
  constexpr const std::array<std::uint8_t, 16>& bytes() const noexcept { return bytes_; }

  /// Host-order 32-bit value of an IPv4 address. Precondition: is_v4().
  constexpr std::uint32_t v4_value() const noexcept {
    return (static_cast<std::uint32_t>(bytes_[0]) << 24) |
           (static_cast<std::uint32_t>(bytes_[1]) << 16) |
           (static_cast<std::uint32_t>(bytes_[2]) << 8) |
           static_cast<std::uint32_t>(bytes_[3]);
  }

  std::string to_string() const;

  /// Orders by family, then bytes: every std::map, std::set and sort of
  /// addresses depends on this order.
  friend constexpr auto operator<=>(const IpAddress&, const IpAddress&) noexcept = default;

  /// The same equality as the defaulted one, as two 8-byte compares instead
  /// of a memcmp call: every flat-map probe and 5-tuple compare pays it.
  friend constexpr bool operator==(const IpAddress& a, const IpAddress& b) noexcept {
    using Words = std::array<std::uint64_t, 2>;
    const auto x = std::bit_cast<Words>(a.bytes_);
    const auto y = std::bit_cast<Words>(b.bytes_);
    return ((x[0] ^ y[0]) | (x[1] ^ y[1])) == 0 && a.family_ == b.family_;
  }

 private:
  IpFamily family_ = IpFamily::kV4;
  std::array<std::uint8_t, 16> bytes_{};
};

}  // namespace silkroad::net
