// Hash primitives modeling the generic hash units of a switching ASIC.
//
// Switching ASICs expose families of independent hash functions (used for
// ECMP, LAG, cuckoo stage addressing, bloom filter indices, digests). We model
// them as a seeded 64-bit mixer: each seed yields an independent member of the
// family. A software CRC32-C is also provided since ASIC digest units are
// CRC-based; ConnTable digests can use either.
//
// Two kinds of hash live here (DESIGN.md §5). *Model hashes*
// (hash_five_tuple, connection_digest, flow_id, and hash_address under the
// fleet membership digests) are part of the reproduction: their values pick
// stage buckets, digests, bloom bits and DIPs, and appear in traces and
// exports, so they must not change. *Container hashes*
// (FiveTupleHash, EndpointHash) only spread keys across std::unordered_*
// buckets; they are word-wise, never exported, and free to change.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "net/five_tuple.h"

namespace silkroad::net {

/// SplitMix64 finalizer — a strong, cheap 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seeded hash over raw bytes (FNV-1a accumulation + SplitMix64 finalize).
std::uint64_t hash_bytes(std::span<const std::uint8_t> data,
                         std::uint64_t seed) noexcept;

/// hash_bytes(ip.bytes(), seed), bit for bit, with an IPv4 address's twelve
/// zero fill bytes folded into one multiply.
std::uint64_t hash_address(const IpAddress& ip, std::uint64_t seed) noexcept;

/// CRC32-C (Castagnoli) of raw bytes — software table-driven implementation.
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0) noexcept;

/// Seeded hash of a 5-tuple. All ASIC-side addressing (cuckoo stage index,
/// bloom index, ECMP member selection) and digest extraction flow through
/// this function with different seeds, exactly as distinct hash units would.
std::uint64_t hash_five_tuple(const FiveTuple& t, std::uint64_t seed) noexcept;

/// One member of an independent hash-function family, identified by seed.
class HashFunction {
 public:
  constexpr explicit HashFunction(std::uint64_t seed) noexcept : seed_(seed) {}

  std::uint64_t operator()(const FiveTuple& t) const noexcept {
    return hash_five_tuple(t, seed_);
  }
  std::uint64_t operator()(std::span<const std::uint8_t> bytes) const noexcept {
    return hash_bytes(bytes, seed_);
  }
  constexpr std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// Extracts a `bits`-wide digest (1..32 bits) from a connection, independent
/// of the addressing hashes (distinct seed domain). Paper §4.2 uses 16 bits.
std::uint32_t connection_digest(const FiveTuple& t, unsigned bits) noexcept;

/// A flow's stable identity: TraceRing flow ids, journeys, forensics reports
/// and the SwitchCpu shard key. Unlike FiveTupleHash its value is fixed.
inline std::uint64_t flow_id(const FiveTuple& t) noexcept {
  return hash_five_tuple(t, 0xC0FFEE0DDBA11ULL);
}

namespace detail {

/// wyhash's multiply-fold: the 128-bit product, high half XOR low half.
inline std::uint64_t mum(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

inline std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One 16-byte address as two 8-byte words, folded into one.
inline std::uint64_t address_word(const IpAddress& ip, std::uint64_t k0,
                                  std::uint64_t k1) noexcept {
  const std::uint8_t* b = ip.bytes().data();
  return mum(load64(b) ^ k0, load64(b + 8) ^ k1);
}

inline std::uint64_t family_bits(const IpAddress& ip) noexcept {
  return static_cast<std::uint64_t>(ip.family());
}

// wyhash's default secret.
inline constexpr std::uint64_t kWy0 = 0xA0761D6478BD642FULL;
inline constexpr std::uint64_t kWy1 = 0xE7037ED1A0B428DBULL;
inline constexpr std::uint64_t kWy2 = 0x8EBC6AF09C88C6E3ULL;
inline constexpr std::uint64_t kWy3 = 0x589965CC75374CC3ULL;

}  // namespace detail

/// Container hash for FiveTuple keys (switch-CPU shadow state, simulator
/// bookkeeping). Word-wise; its values must not leave the container — use
/// flow_id() for anything traced or exported.
struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    using namespace detail;
    const std::uint64_t tail = std::uint64_t{t.src.port} << 48 |
                               std::uint64_t{t.dst.port} << 32 |
                               static_cast<std::uint64_t>(t.proto) << 16 |
                               family_bits(t.src.ip) << 8 |
                               family_bits(t.dst.ip);
    return static_cast<std::size_t>(
        mum(address_word(t.src.ip, kWy0, kWy1) ^ tail,
            address_word(t.dst.ip, kWy2, kWy3)));
  }
};

/// Container hash for Endpoint keys (VIP-indexed control-plane maps).
struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const noexcept {
    using namespace detail;
    const std::uint64_t tail =
        std::uint64_t{e.port} << 8 | family_bits(e.ip);
    return static_cast<std::size_t>(
        mum(address_word(e.ip, kWy0, kWy1) ^ tail, kWy2));
  }
};

}  // namespace silkroad::net
