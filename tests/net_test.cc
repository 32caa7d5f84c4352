#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/endpoint.h"
#include "net/five_tuple.h"
#include "net/flat_map.h"
#include "net/hash.h"
#include "net/ip_address.h"
#include "net/slab.h"
#include "sim/random.h"

namespace silkroad::net {
namespace {

TEST(IpAddress, V4RoundTrip) {
  const auto a = IpAddress::v4(0x0A000001);
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.to_string(), "10.0.0.1");
  EXPECT_EQ(a.v4_value(), 0x0A000001u);
  EXPECT_EQ(a.wire_bytes(), 4u);
  const auto parsed = IpAddress::parse("10.0.0.1");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(IpAddress, V4ParseEdgeCases) {
  EXPECT_TRUE(IpAddress::parse("0.0.0.0").has_value());
  EXPECT_TRUE(IpAddress::parse("255.255.255.255").has_value());
  EXPECT_FALSE(IpAddress::parse("256.0.0.1").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4 ").has_value());
}

TEST(IpAddress, V6RoundTrip) {
  const auto a = IpAddress::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_v6());
  EXPECT_EQ(a->wire_bytes(), 16u);
  EXPECT_EQ(a->to_string(), "2001:db8::1");
}

TEST(IpAddress, V6ZeroCompression) {
  EXPECT_EQ(IpAddress::v6(0, 0).to_string(), "::");
  EXPECT_EQ(IpAddress::v6(0, 1).to_string(), "::1");
  EXPECT_EQ(IpAddress::parse("1::")->to_string(), "1::");
  EXPECT_EQ(IpAddress::parse("1:0:0:2::3")->to_string(), "1:0:0:2::3");
  // Full address with no zero runs.
  const auto full = IpAddress::parse("1:2:3:4:5:6:7:8");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->to_string(), "1:2:3:4:5:6:7:8");
}

TEST(IpAddress, V6ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("1::2::3").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(IpAddress::parse("12345::").has_value());
  EXPECT_FALSE(IpAddress::parse("g::1").has_value());
  // "::" replacing zero groups must actually shorten the address.
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7::8").has_value());
}

TEST(IpAddress, V6HiLoConstructor) {
  const auto a = IpAddress::v6(0x20010DB800000000ULL, 0x1ULL);
  EXPECT_EQ(a.to_string(), "2001:db8::1");
}

TEST(IpAddress, OrderingIsConsistent) {
  const auto a = IpAddress::v4(1);
  const auto b = IpAddress::v4(2);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(Endpoint, RoundTrip) {
  const Endpoint e{IpAddress::v4(0x14000001), 80};
  EXPECT_EQ(e.to_string(), "20.0.0.1:80");
  const auto parsed = Endpoint::parse("20.0.0.1:80");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, e);
  EXPECT_EQ(e.wire_bytes(), 6u);
}

TEST(Endpoint, V6RoundTrip) {
  const auto parsed = Endpoint::parse("[2001:db8::1]:443");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->port, 443);
  EXPECT_EQ(parsed->to_string(), "[2001:db8::1]:443");
  EXPECT_EQ(parsed->wire_bytes(), 18u);
}

TEST(Endpoint, ParseRejectsMalformed) {
  EXPECT_FALSE(Endpoint::parse("10.0.0.1").has_value());
  EXPECT_FALSE(Endpoint::parse("10.0.0.1:99999").has_value());
  EXPECT_FALSE(Endpoint::parse("[2001:db8::1]443").has_value());
  EXPECT_FALSE(Endpoint::parse("[2001:db8::1]").has_value());
  EXPECT_FALSE(Endpoint::parse(":80").has_value());
}

FiveTuple make_tuple(std::uint32_t client, std::uint16_t port) {
  return FiveTuple{{IpAddress::v4(client), port},
                   {IpAddress::v4(0x14000001), 80},
                   Protocol::kTcp};
}

TEST(FiveTuple, WireBytesMatchPaper) {
  // Paper footnote 1: an IPv6 5-tuple key is 37 bytes.
  const FiveTuple v6{{IpAddress::v6(1, 2), 1234},
                     {IpAddress::v6(3, 4), 80},
                     Protocol::kTcp};
  EXPECT_EQ(v6.wire_bytes(), 37u);
  // IPv4: 4+4 addr + 2+2 ports + 1 proto = 13 bytes.
  EXPECT_EQ(make_tuple(1, 2).wire_bytes(), 13u);
}

TEST(Hash, DeterministicAndSeedSensitive) {
  const auto t = make_tuple(0x01020304, 1234);
  EXPECT_EQ(hash_five_tuple(t, 7), hash_five_tuple(t, 7));
  EXPECT_NE(hash_five_tuple(t, 7), hash_five_tuple(t, 8));
}

TEST(Hash, DistinctTuplesRarelyCollide) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    seen.insert(hash_five_tuple(make_tuple(i, 1000), 42));
  }
  EXPECT_EQ(seen.size(), 20000u);  // 64-bit collisions at 20K keys: ~1e-11
}

TEST(Hash, V4DoesNotAliasV6) {
  // An IPv4 address zero-extended to 16 bytes must not hash like the
  // corresponding IPv6 address.
  FiveTuple v4 = make_tuple(0x0A000001, 80);
  FiveTuple v6 = v4;
  std::array<std::uint8_t, 16> raw{};
  raw[0] = 10;
  raw[3] = 1;
  v6.src.ip = IpAddress::v6(raw);
  EXPECT_NE(hash_five_tuple(v4, 1), hash_five_tuple(v6, 1));
}

TEST(Hash, Crc32cKnownVector) {
  // CRC32-C("123456789") = 0xE3069283 (RFC 3720 appendix test vector).
  const char* data = "123456789";
  const std::uint32_t crc = crc32c(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data), 9));
  EXPECT_EQ(crc, 0xE3069283u);
}

TEST(Hash, DigestWidthMasks) {
  const auto t = make_tuple(99, 42);
  EXPECT_LT(connection_digest(t, 16), 1u << 16);
  EXPECT_LT(connection_digest(t, 24), 1u << 24);
  EXPECT_LE(connection_digest(t, 1), 1u);
  // Digest must differ from the low bits of addressing hashes (independence
  // sanity check: at least not identical for a sample of tuples).
  int same = 0;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const auto tuple = make_tuple(i, 1);
    if (connection_digest(tuple, 16) ==
        (hash_five_tuple(tuple, 0) & 0xFFFF)) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

// --- Model-hash contract: bit-identical to the byte-by-byte definition -------

// The definition of hash_five_tuple: FNV-1a (hash_bytes) over a 37-byte
// buffer holding each address as 16 bytes (IPv4 zero-filled), both ports
// big-endian and the protocol, with a family tag folded into the seed.
std::uint64_t reference_hash_five_tuple(const FiveTuple& t,
                                        std::uint64_t seed) {
  std::array<std::uint8_t, 37> buf{};
  std::size_t pos = 0;
  for (const std::uint8_t b : t.src.ip.bytes()) buf[pos++] = b;
  buf[pos++] = static_cast<std::uint8_t>(t.src.port >> 8);
  buf[pos++] = static_cast<std::uint8_t>(t.src.port);
  for (const std::uint8_t b : t.dst.ip.bytes()) buf[pos++] = b;
  buf[pos++] = static_cast<std::uint8_t>(t.dst.port >> 8);
  buf[pos++] = static_cast<std::uint8_t>(t.dst.port);
  buf[pos++] = static_cast<std::uint8_t>(t.proto);
  const std::uint64_t family_tag =
      (t.src.ip.is_v6() ? 2u : 0u) | (t.dst.ip.is_v6() ? 1u : 0u);
  return hash_bytes(std::span<const std::uint8_t>(buf),
                    seed ^ mix64(family_tag));
}

std::uint32_t reference_digest(const FiveTuple& t, unsigned bits) {
  const std::uint64_t h = reference_hash_five_tuple(t, 0xD16E57D0A11A5EEDULL);
  return static_cast<std::uint32_t>(
      bits == 32 ? h & 0xFFFFFFFFULL : h & ((1ULL << bits) - 1));
}

enum class Families { kV4, kV6, kMixed };

IpAddress random_address(sim::Rng& rng, bool v6) {
  if (!v6) return IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
  // One address in eight keeps a zero low half, so the IPv6 path also sees
  // runs of zero bytes like the IPv4 fill.
  const std::uint64_t hi = rng.next();
  const std::uint64_t lo = rng.next() % 8 == 0 ? 0 : rng.next();
  return IpAddress::v6(hi, lo);
}

FiveTuple random_tuple(sim::Rng& rng, Families families) {
  const bool src_v6 = families == Families::kV6 ||
                      (families == Families::kMixed && rng.next() % 2 == 0);
  const bool dst_v6 = families == Families::kV6 ||
                      (families == Families::kMixed && rng.next() % 2 == 0);
  FiveTuple t;
  t.src = {random_address(rng, src_v6),
           static_cast<std::uint16_t>(rng.next())};
  t.dst = {random_address(rng, dst_v6),
           static_cast<std::uint16_t>(rng.next())};
  t.proto = rng.next() % 2 == 0 ? Protocol::kTcp : Protocol::kUdp;
  return t;
}

class ModelHashMatchesReference : public ::testing::TestWithParam<Families> {
};

TEST_P(ModelHashMatchesReference, OverRandomTuplesAndSeeds) {
  sim::Rng rng(0x5EED0000ULL + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200'000; ++i) {
    const FiveTuple t = random_tuple(rng, GetParam());
    const std::uint64_t seed = i % 4 == 0 ? static_cast<std::uint64_t>(i)
                                          : rng.next();
    ASSERT_EQ(hash_five_tuple(t, seed), reference_hash_five_tuple(t, seed))
        << t.to_string() << " seed " << seed;
    ASSERT_EQ(flow_id(t), reference_hash_five_tuple(t, 0xC0FFEE0DDBA11ULL))
        << t.to_string();
    for (const unsigned bits : {16u, 24u, 32u}) {
      ASSERT_EQ(connection_digest(t, bits), reference_digest(t, bits))
          << t.to_string() << " bits " << bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ModelHashMatchesReference,
                         ::testing::Values(Families::kV4, Families::kV6,
                                           Families::kMixed));

// hash_address is the membership digests' endpoint hash (obs::VipDigest):
// its IPv4 fast path must equal hash_bytes over the 16 address bytes.
TEST(AddressHash, MatchesHashBytesOverRandomAddressesAndSeeds) {
  sim::Rng rng(0x5EEDADD5ULL);
  for (int i = 0; i < 400'000; ++i) {
    const IpAddress ip = random_address(rng, i % 2 == 0);
    const std::uint64_t seed = i % 4 < 2 ? static_cast<std::uint64_t>(i / 4)
                                         : rng.next();
    ASSERT_EQ(hash_address(ip, seed),
              hash_bytes(std::span<const std::uint8_t>(ip.bytes()), seed))
        << ip.to_string() << " seed " << seed;
  }
}

// --- Equality and order: word-wise ==, field-wise <=> ----------------------

// The byte-wise definitions the operators must match: the family, then the
// 16 address bytes (IPv4 zero-filled), then the ports and the protocol.
bool reference_equal(const IpAddress& a, const IpAddress& b) {
  return a.family() == b.family() &&
         std::memcmp(a.bytes().data(), b.bytes().data(), 16) == 0;
}
bool reference_equal(const Endpoint& a, const Endpoint& b) {
  return reference_equal(a.ip, b.ip) && a.port == b.port;
}
bool reference_equal(const FiveTuple& a, const FiveTuple& b) {
  return reference_equal(a.src, b.src) && reference_equal(a.dst, b.dst) &&
         a.proto == b.proto;
}
int reference_compare(const IpAddress& a, const IpAddress& b) {
  if (a.family() != b.family()) return a.family() < b.family() ? -1 : 1;
  return std::memcmp(a.bytes().data(), b.bytes().data(), 16);
}
bool reference_less(const Endpoint& a, const Endpoint& b) {
  const int ip = reference_compare(a.ip, b.ip);
  return ip != 0 ? ip < 0 : a.port < b.port;
}

static_assert(IpAddress::v4(0x0A000001) == IpAddress::v4(0x0A000001));
static_assert(!(IpAddress::v4(0x0A000001) == IpAddress::v4(0x0A000002)));
static_assert(!(IpAddress::v4(0) == IpAddress::v6(0, 0)));
static_assert(IpAddress::v6(1, 2) == IpAddress::v6(1, 2));
static_assert(!(IpAddress::v6(1, 2) == IpAddress::v6(1, 3)));

/// An address that shares its bytes but not its family with `a`, when one
/// exists (a v6 address needs a zero tail to have a v4 twin).
std::optional<IpAddress> family_twin(const IpAddress& a) {
  if (a.is_v4()) return IpAddress::v6(a.bytes());
  for (std::size_t i = 4; i < 16; ++i) {
    if (a.bytes()[i] != 0) return std::nullopt;
  }
  return IpAddress::v4(a.v4_value());
}

/// `a` with one thing changed: a byte, the family, or nothing.
IpAddress near(sim::Rng& rng, const IpAddress& a) {
  switch (rng.next() % 4) {
    case 0:
      return a;
    case 1: {
      if (const auto twin = family_twin(a)) return *twin;
      return a;
    }
    case 2: {
      auto bytes = a.bytes();
      bytes[rng.next() % a.wire_bytes()] ^=
          static_cast<std::uint8_t>(1u << (rng.next() % 8));
      if (a.is_v6()) return IpAddress::v6(bytes);
      return IpAddress::v4(IpAddress::v6(bytes).v4_value());
    }
    default:
      return random_address(rng, rng.next() % 2 == 0);
  }
}

IpAddress random_short_address(sim::Rng& rng) {
  // Half of the v6 addresses have a zero tail, so they have v4 twins.
  if (rng.next() % 2 == 0) return random_address(rng, false);
  std::array<std::uint8_t, 16> bytes{};
  const std::size_t n = rng.next() % 2 == 0 ? 4 : 16;
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(rng.next() % 4);
  }
  return IpAddress::v6(bytes);
}

TEST(Equality, MatchesByteWiseReferenceOverRandomPairs) {
  sim::Rng rng(0xE0A1E0A1ULL);
  std::size_t equal = 0;
  std::size_t twins = 0;
  for (int i = 0; i < 200'000; ++i) {
    const IpAddress a = random_short_address(rng);
    const IpAddress b = near(rng, a);
    ASSERT_EQ(a == b, reference_equal(a, b)) << a.to_string() << " "
                                             << b.to_string();
    ASSERT_EQ(a != b, !reference_equal(a, b));
    equal += reference_equal(a, b) ? 1 : 0;
    twins += a.bytes() == b.bytes() && a.family() != b.family() ? 1 : 0;

    const Endpoint ea{a, static_cast<std::uint16_t>(rng.next() % 3)};
    const Endpoint eb{near(rng, a), rng.next() % 2 == 0
                                        ? ea.port
                                        : static_cast<std::uint16_t>(
                                              rng.next() % 3)};
    ASSERT_EQ(ea == eb, reference_equal(ea, eb)) << ea.to_string() << " "
                                                 << eb.to_string();

    FiveTuple ta{ea, eb, Protocol::kTcp};
    FiveTuple tb = ta;
    switch (rng.next() % 4) {
      case 0:
        tb.src.ip = near(rng, ta.src.ip);
        break;
      case 1:
        tb.dst.ip = near(rng, ta.dst.ip);
        break;
      case 2:
        tb.proto = Protocol::kUdp;
        break;
      default:
        break;
    }
    ASSERT_EQ(ta == tb, reference_equal(ta, tb)) << ta.to_string() << " "
                                                 << tb.to_string();
  }
  // Both outcomes, and same-bytes-other-family pairs, are well represented.
  EXPECT_GT(equal, 20'000u);
  EXPECT_GT(twins, 20'000u);
}

TEST(Equality, SameBytesDifferentFamilyDiffer) {
  const IpAddress v4 = IpAddress::v4(0x0A000001);
  const IpAddress v6 = IpAddress::v6(v4.bytes());
  ASSERT_EQ(v4.bytes(), v6.bytes());
  EXPECT_FALSE(v4 == v6);
  EXPECT_FALSE((Endpoint{v4, 80} == Endpoint{v6, 80}));
  const FiveTuple t{{v4, 1}, {v4, 80}, Protocol::kTcp};
  FiveTuple u = t;
  u.dst.ip = v6;
  EXPECT_FALSE(t == u);
  u.dst.ip = v4;
  EXPECT_TRUE(t == u);
}

TEST(Ordering, SortMatchesFamilyThenBytesReference) {
  sim::Rng rng(0x50127ULL);
  for (int round = 0; round < 50; ++round) {
    std::vector<Endpoint> endpoints;
    for (int i = 0; i < 400; ++i) {
      const IpAddress ip = i > 0 && rng.next() % 4 == 0
                               ? near(rng, endpoints.back().ip)
                               : random_short_address(rng);
      endpoints.push_back({ip, static_cast<std::uint16_t>(rng.next() % 3)});
    }
    std::vector<Endpoint> by_operator = endpoints;
    std::sort(by_operator.begin(), by_operator.end());
    std::vector<Endpoint> by_reference = endpoints;
    std::sort(by_reference.begin(), by_reference.end(), reference_less);
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      ASSERT_TRUE(reference_equal(by_operator[i], by_reference[i]))
          << "round " << round << " position " << i << ": "
          << by_operator[i].to_string() << " vs "
          << by_reference[i].to_string();
    }
    // The two orders agree pair by pair, not only after sorting.
    for (std::size_t i = 1; i < endpoints.size(); ++i) {
      const Endpoint& a = endpoints[i - 1];
      const Endpoint& b = endpoints[i];
      ASSERT_EQ(a < b, reference_less(a, b));
      ASSERT_EQ(a.ip < b.ip, reference_compare(a.ip, b.ip) < 0);
    }
  }
}

// --- Container hashes: word-wise, but every field still counts -------------

TEST(ContainerHash, FamilyPortAndProtocolAllCount) {
  const IpAddress v4 = IpAddress::v4(0x0A000001);
  std::array<std::uint8_t, 16> raw{};
  raw[0] = 10;
  raw[3] = 1;
  const IpAddress v6 = IpAddress::v6(raw);  // same leading (and all) bytes
  ASSERT_EQ(v4.bytes(), v6.bytes());

  const EndpointHash eh;
  EXPECT_NE(eh(Endpoint{v4, 80}), eh(Endpoint{v6, 80}));
  EXPECT_NE(eh(Endpoint{v4, 80}), eh(Endpoint{v4, 81}));

  const FiveTupleHash th;
  const FiveTuple base = make_tuple(0x0A000001, 80);
  FiveTuple src_v6 = base;
  src_v6.src.ip = v6;
  FiveTuple dst_v6 = base;
  dst_v6.dst.ip = IpAddress::v6({20, 0, 0, 1});
  EXPECT_NE(th(base), th(src_v6));
  EXPECT_NE(th(base), th(dst_v6));
  FiveTuple src_port = base;
  ++src_port.src.port;
  FiveTuple dst_port = base;
  ++dst_port.dst.port;
  EXPECT_NE(th(base), th(src_port));
  EXPECT_NE(th(base), th(dst_port));
  EXPECT_NE(th(src_port), th(dst_port));
  FiveTuple udp = base;
  udp.proto = Protocol::kUdp;
  EXPECT_NE(th(base), th(udp));
}

TEST(ContainerHash, NoCollisionsOverFlowGeneratorClientPlan) {
  // workload::FlowGenerator's IPv4 client plan: client n is 11.0.0.0 | n on
  // an ephemeral port in [32768, 60768), connecting to one of a few VIPs.
  constexpr std::uint32_t kFlows = 1'000'000;
  sim::Rng rng(17);
  std::vector<std::size_t> hashes;
  hashes.reserve(kFlows);
  const FiveTupleHash th;
  for (std::uint32_t client = 0; client < kFlows; ++client) {
    const FiveTuple t{
        {IpAddress::v4(0x0B000000 | (client & 0x00FFFFFF)),
         static_cast<std::uint16_t>(32768 + rng.next() % 28000)},
        {IpAddress::v4(0x14000001 + client % 4), 80},
        Protocol::kTcp};
    hashes.push_back(th(t));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

class DigestCollisionRate : public ::testing::TestWithParam<unsigned> {};

TEST_P(DigestCollisionRate, MatchesBirthdayExpectation) {
  const unsigned bits = GetParam();
  const std::size_t n = 4096;
  std::unordered_set<std::uint32_t> seen;
  std::size_t collisions = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!seen.insert(connection_digest(make_tuple(i, 7), bits)).second) {
      ++collisions;
    }
  }
  // Expected collisions ~ n^2 / 2^(bits+1); allow generous slack.
  const double expected =
      static_cast<double>(n) * n / std::pow(2.0, bits + 1);
  EXPECT_LE(static_cast<double>(collisions), expected * 3 + 8);
  if (bits >= 28) {
    EXPECT_EQ(collisions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, DigestCollisionRate,
                         ::testing::Values(12u, 16u, 20u, 24u, 28u, 32u));

/// Hashes a key to itself modulo 8, so probe runs are long and a key's home
/// slot is chosen by the test.
struct ClusteringHash {
  std::size_t operator()(std::uint32_t key) const noexcept { return key % 8 + 8; }
};

using ClusterMap = FlatMap<std::uint32_t, std::uint32_t, ClusteringHash>;

void expect_same(const ClusterMap& flat,
                 const std::unordered_map<std::uint32_t, std::uint32_t>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  for (const auto& [key, value] : ref) {
    const std::uint32_t* found = flat.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
  }
  // Iteration visits each key exactly once.
  std::map<std::uint32_t, std::uint32_t> visited;
  for (const auto& entry : flat) {
    EXPECT_TRUE(visited.emplace(entry.key, entry.value).second)
        << "key " << entry.key << " visited twice";
  }
  EXPECT_EQ(visited.size(), ref.size());
}

TEST(FlatMap, ErasureWrapsPastTheEnd) {
  // Capacity 16 (the first allocation); homes 8..15 put every run at the
  // end of the table, so runs wrap to slot 0 and erasures shift across it.
  ClusterMap flat;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  for (std::uint32_t key : {7u, 15u, 23u, 31u, 6u, 14u, 39u, 5u}) {
    flat[key] = key * 3;
    ref[key] = key * 3;
  }
  ASSERT_EQ(flat.capacity(), 16u);
  for (std::uint32_t key : {7u, 14u, 31u}) {
    EXPECT_TRUE(flat.erase(key));
    ref.erase(key);
    expect_same(flat, ref);
  }
  EXPECT_FALSE(flat.erase(7u));
  EXPECT_FALSE(flat.contains(14u));
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOperations) {
  sim::Rng rng(17);
  ClusterMap flat;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  for (int op = 0; op < 20'000; ++op) {
    // A small key space keeps erases and re-inserts of live keys frequent.
    const auto key = static_cast<std::uint32_t>(rng.next() % 96);
    switch (rng.next() % 3) {
      case 0: {
        const auto value = static_cast<std::uint32_t>(op);
        const bool inserted = flat.try_emplace(key, value).second;
        EXPECT_EQ(inserted, ref.emplace(key, value).second);
        break;
      }
      case 1:
        EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
        break;
      default:
        EXPECT_EQ(flat.contains(key), ref.contains(key));
        break;
    }
    if (op % 997 == 0) expect_same(flat, ref);
  }
  expect_same(flat, ref);
}

TEST(FlatMap, GrowsOnDemandAndClears) {
  FlatMap<FiveTuple, std::uint32_t, FiveTupleHash> flat;
  EXPECT_EQ(flat.capacity(), 0u);  // nothing allocated before the first insert
  EXPECT_EQ(flat.find(make_tuple(1, 1)), nullptr);
  for (std::uint32_t i = 0; i < 10'000; ++i) flat[make_tuple(i, 2)] = i;
  EXPECT_EQ(flat.size(), 10'000u);
  EXPECT_LE(flat.size() * 4, flat.capacity() * 3);
  for (std::uint32_t i = 0; i < 10'000; i += 2) {
    ASSERT_TRUE(flat.erase(make_tuple(i, 2)));
  }
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    const std::uint32_t* value = flat.find(make_tuple(i, 2));
    if (i % 2 == 0) {
      EXPECT_EQ(value, nullptr);
    } else {
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(*value, i);
    }
  }
  const std::size_t capacity = flat.capacity();
  flat.clear();
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.capacity(), capacity);
  EXPECT_EQ(flat.begin(), flat.end());
  EXPECT_FALSE(flat.contains(make_tuple(1, 2)));
}

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

TEST(Slab, GrowsPastChunksWithoutMovingElements) {
  using Ids = Slab<std::uint64_t>;
  // Past two chunk boundaries, into the third chunk.
  const std::size_t n = 2 * Ids::kChunkSize + 7;
  Ids slab;
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_EQ(slab.begin(), slab.end());
  std::uint64_t& first = slab.emplace_back(1000);
  const std::uint64_t* first_address = &first;
  for (std::size_t i = 1; i < n; ++i) {
    // Ids are dense from 0: element i is the i-th appended.
    EXPECT_EQ(slab.size(), i);
    const std::uint64_t* appended = &slab.emplace_back(1000 + i);
    EXPECT_EQ(appended, &slab[i]);
  }
  EXPECT_EQ(slab.size(), n);
  EXPECT_EQ(&first, first_address);
  EXPECT_EQ(&slab[0], first_address);
  EXPECT_EQ(first, 1000u);
  std::uint64_t expected = 1000;
  for (const std::uint64_t value : slab) EXPECT_EQ(value, expected++);
  EXPECT_EQ(expected, 1000 + n);
  // Writes through operator[] land where the references point.
  slab[Ids::kChunkSize] = 7;
  const Ids& read = slab;
  EXPECT_EQ(read[Ids::kChunkSize], 7u);
}

/// Counts its constructions and destructions.
struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  explicit Counted(int v) : value(v) { ++constructed; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++destroyed; }
  int value;
};

TEST(Slab, ConstructsEachElementOnceInPlace) {
  Counted::constructed = 0;
  Counted::destroyed = 0;
  const std::size_t n = Slab<Counted>::kChunkSize + 3;
  {
    Slab<Counted> slab;
    for (std::size_t i = 0; i < n; ++i) {
      slab.emplace_back(static_cast<int>(i));
      // Nothing past size() is constructed, nothing is copied or moved.
      EXPECT_EQ(Counted::constructed, static_cast<int>(i + 1));
    }
    EXPECT_EQ(Counted::destroyed, 0);
    EXPECT_EQ(slab[n - 1].value, static_cast<int>(n - 1));
  }
  EXPECT_EQ(Counted::constructed, static_cast<int>(n));
  EXPECT_EQ(Counted::destroyed, static_cast<int>(n));
}

}  // namespace
}  // namespace silkroad::net
