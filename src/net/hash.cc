#include "net/hash.h"

#include <array>

namespace silkroad::net {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// Seed domain separator so digests are independent of addressing hashes even
// if a caller picks numerically colliding seeds.
constexpr std::uint64_t kDigestDomain = 0xD16E57D0A11A5EEDULL;

constexpr std::uint64_t fnv_byte(std::uint64_t h, std::uint8_t byte) noexcept {
  return (h ^ byte) * kFnvPrime;
}

constexpr std::uint64_t fnv_prime_pow(unsigned n) noexcept {
  std::uint64_t p = 1;
  for (unsigned i = 0; i < n; ++i) p *= kFnvPrime;
  return p;
}

// A zero byte's FNV-1a round is h * prime, so the twelve zero fill bytes
// after an IPv4 address collapse into one multiply by prime^12 (mod 2^64).
constexpr std::uint64_t kFnvPrimePow12 = fnv_prime_pow(12);

// mix64(family_tag) for the four tags (bit 1: src is v6, bit 0: dst is v6).
constexpr std::array<std::uint64_t, 4> kFamilyMix = {mix64(0), mix64(1),
                                                     mix64(2), mix64(3)};

std::uint64_t fnv_address(std::uint64_t h, const IpAddress& ip) noexcept {
  const auto& b = ip.bytes();
  if (ip.is_v4()) {
    // IpAddress keeps bytes 4..15 of an IPv4 address zero.
    h = fnv_byte(fnv_byte(fnv_byte(fnv_byte(h, b[0]), b[1]), b[2]), b[3]);
    return h * kFnvPrimePow12;
  }
  for (const std::uint8_t byte : b) h = fnv_byte(h, byte);
  return h;
}

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t kPoly = 0x82F63B78;  // reflected Castagnoli
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const auto table = make_crc32c_table();
  return table;
}

}  // namespace

std::uint64_t hash_bytes(std::span<const std::uint8_t> data,
                         std::uint64_t seed) noexcept {
  std::uint64_t h = kFnvOffset ^ mix64(seed);
  for (const std::uint8_t byte : data) h = fnv_byte(h, byte);
  return mix64(h);
}

std::uint64_t hash_address(const IpAddress& ip, std::uint64_t seed) noexcept {
  return mix64(fnv_address(kFnvOffset ^ mix64(seed), ip));
}

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  const auto& table = crc32c_table();
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t hash_five_tuple(const FiveTuple& t, std::uint64_t seed) noexcept {
  // FNV-1a over the 37-byte IPv6-width serialization (each address as 16
  // bytes, IPv4 zero-filled; then big-endian ports and the protocol), fed
  // field by field, with a family tag folded into the seed so v4/v6 cannot
  // alias. tests/net_test.cc keeps the buffer-based definition and checks
  // bit-equality against it.
  const std::uint64_t family_tag =
      (t.src.ip.is_v6() ? 2u : 0u) | (t.dst.ip.is_v6() ? 1u : 0u);
  std::uint64_t h = kFnvOffset ^ mix64(seed ^ kFamilyMix[family_tag]);
  h = fnv_address(h, t.src.ip);
  h = fnv_byte(h, static_cast<std::uint8_t>(t.src.port >> 8));
  h = fnv_byte(h, static_cast<std::uint8_t>(t.src.port));
  h = fnv_address(h, t.dst.ip);
  h = fnv_byte(h, static_cast<std::uint8_t>(t.dst.port >> 8));
  h = fnv_byte(h, static_cast<std::uint8_t>(t.dst.port));
  h = fnv_byte(h, static_cast<std::uint8_t>(t.proto));
  return mix64(h);
}

std::uint32_t connection_digest(const FiveTuple& t, unsigned bits) noexcept {
  const std::uint64_t h = hash_five_tuple(t, kDigestDomain);
  const unsigned width = bits == 0 ? 1 : (bits > 32 ? 32 : bits);
  return static_cast<std::uint32_t>(h & ((width == 32)
                                             ? 0xFFFFFFFFULL
                                             : ((1ULL << width) - 1)));
}

}  // namespace silkroad::net
