#include "net/endpoint.h"

#include <charconv>

namespace silkroad::net {

std::string Endpoint::to_string() const {
  // Built by appending: gcc 12 reports a false -Wrestrict on
  // "[" + std::string + "]:", and on assigning a literal to a string.
  std::string text;
  if (ip.is_v6()) text += '[';
  text += ip.to_string();
  if (ip.is_v6()) text += ']';
  text += ':';
  text += std::to_string(port);
  return text;
}

std::optional<Endpoint> Endpoint::parse(std::string_view text) {
  std::string_view addr_part;
  std::string_view port_part;
  if (!text.empty() && text.front() == '[') {
    const auto close = text.find(']');
    if (close == std::string_view::npos || close + 1 >= text.size() ||
        text[close + 1] != ':') {
      return std::nullopt;
    }
    addr_part = text.substr(1, close - 1);
    port_part = text.substr(close + 2);
  } else {
    const auto colon = text.rfind(':');
    if (colon == std::string_view::npos) return std::nullopt;
    addr_part = text.substr(0, colon);
    port_part = text.substr(colon + 1);
  }
  const auto ip = IpAddress::parse(addr_part);
  if (!ip) return std::nullopt;
  unsigned port = 0;
  auto [ptr, ec] =
      std::from_chars(port_part.data(), port_part.data() + port_part.size(), port);
  if (ec != std::errc{} || ptr != port_part.data() + port_part.size() ||
      port > 0xFFFF) {
    return std::nullopt;
  }
  return Endpoint{*ip, static_cast<std::uint16_t>(port)};
}

}  // namespace silkroad::net
