// Transport endpoint (IP:port) — the representation of both VIPs and DIPs.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ip_address.h"

namespace silkroad::net {

/// An (address, L4 port) pair. A VIP is an Endpoint clients connect to; a DIP
/// is an Endpoint of a backend server in the VIP's pool (paper §2.1).
struct Endpoint {
  IpAddress ip;
  std::uint16_t port = 0;

  /// Wire size: address bytes + 2 port bytes (18 B for IPv6, 6 B for IPv4).
  /// This is the action-data width a naive ConnTable entry would carry.
  constexpr std::size_t wire_bytes() const noexcept { return ip.wire_bytes() + 2; }

  std::string to_string() const;

  /// Parses "a.b.c.d:port" or "[v6]:port".
  static std::optional<Endpoint> parse(std::string_view text);

  friend constexpr auto operator<=>(const Endpoint&, const Endpoint&) noexcept = default;
  friend constexpr bool operator==(const Endpoint&, const Endpoint&) noexcept = default;
};

/// One VIP and its DIP pool: a switch snapshot's entries, and the membership
/// listings the fleet hands the convergence observer.
struct VipMembers {
  Endpoint vip;
  std::vector<Endpoint> dips;
};

}  // namespace silkroad::net
