#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "asic/cuckoo_table.h"

namespace silkroad::asic {
namespace {

net::FiveTuple make_flow(std::uint32_t client, std::uint16_t port = 1000) {
  return net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), port},
                        {net::IpAddress::v4(0x14000001), 80},
                        net::Protocol::kTcp};
}

CuckooConfig small_config() {
  CuckooConfig config;
  config.stages = 4;
  config.buckets_per_stage = 64;
  config.ways = 4;
  config.digest_bits = 16;
  return config;
}

TEST(DigestCuckooTable, InsertLookupErase) {
  DigestCuckooTable table(small_config());
  const auto flow = make_flow(1);
  EXPECT_FALSE(table.lookup(flow).has_value());
  EXPECT_TRUE(table.insert(flow, 5).inserted);
  const auto hit = table.lookup(flow);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value, 5u);
  EXPECT_FALSE(table.is_false_positive(flow, hit->slot));
  EXPECT_TRUE(table.contains(flow));
  EXPECT_EQ(table.exact_value(flow), 5u);
  EXPECT_TRUE(table.erase(flow));
  EXPECT_FALSE(table.lookup(flow).has_value());
  EXPECT_FALSE(table.erase(flow));
}

TEST(DigestCuckooTable, ReinsertRefreshesValue) {
  DigestCuckooTable table(small_config());
  const auto flow = make_flow(1);
  EXPECT_TRUE(table.insert(flow, 5).inserted);
  EXPECT_TRUE(table.insert(flow, 9).inserted);  // re-learn
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(flow)->value, 9u);
}

TEST(DigestCuckooTable, UpdateValue) {
  DigestCuckooTable table(small_config());
  const auto flow = make_flow(2);
  table.insert(flow, 1);
  EXPECT_TRUE(table.update_value(flow, 3));
  EXPECT_EQ(table.lookup(flow)->value, 3u);
  EXPECT_FALSE(table.update_value(make_flow(3), 1));
}

TEST(DigestCuckooTable, EntryBitsAndSram) {
  DigestCuckooTable table(small_config());
  EXPECT_EQ(table.entry_bits(), 28u);  // 16 digest + 6 value + 6 overhead
  EXPECT_EQ(table.capacity(), 4u * 64 * 4);
  // 4 stages x 64 words x 112 bits.
  EXPECT_EQ(table.sram_bytes(), (4u * 64 * 112 + 7) / 8);
}

TEST(DigestCuckooTable, FillsWellPastSingleStage) {
  DigestCuckooTable table(small_config());
  const std::size_t capacity = table.capacity();
  std::size_t inserted = 0;
  for (std::uint32_t i = 0; i < capacity; ++i) {
    if (table.insert(make_flow(i), i & 63).inserted) ++inserted;
  }
  // BFS cuckoo should pack a 4-way, 4-stage table beyond 95%.
  EXPECT_GT(static_cast<double>(inserted), 0.95 * static_cast<double>(capacity));
  EXPECT_EQ(table.size(), inserted);
  EXPECT_GT(table.total_moves(), 0u);  // displacement definitely happened
}

TEST(DigestCuckooTable, AllInsertedRemainFindable) {
  DigestCuckooTable table(small_config());
  std::vector<net::FiveTuple> flows;
  for (std::uint32_t i = 0; i < 800; ++i) {
    const auto flow = make_flow(i);
    if (table.insert(flow, i % 64).inserted) flows.push_back(flow);
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto hit = table.lookup(flows[i]);
    ASSERT_TRUE(hit.has_value()) << "flow " << i << " lost after moves";
  }
}

TEST(DigestCuckooTable, SlotOrderVisitSeesExactlyTheIndexedEntries) {
  DigestCuckooTable table(small_config());
  std::map<std::uint32_t, std::uint32_t> live;  // client -> value
  // 97% of capacity forces cuckoo moves; then every third flow goes.
  for (std::uint32_t i = 0; i < table.capacity() * 97 / 100; ++i) {
    if (table.insert(make_flow(i), i % 64).inserted) live[i] = i % 64;
  }
  ASSERT_GT(table.total_moves(), 0u);
  for (std::uint32_t i = 0; i < table.capacity(); i += 3) {
    if (live.erase(i) == 1) {
      ASSERT_TRUE(table.erase(make_flow(i)));
    }
  }
  std::map<std::uint32_t, std::uint32_t> visited;
  std::tuple<std::uint32_t, std::uint32_t, std::uint32_t> last{0, 0, 0};
  bool first = true;
  const std::size_t used = table.for_each_used_slot(
      [&](const net::FiveTuple& key, std::uint32_t value) {
        EXPECT_TRUE(table.contains(key));
        EXPECT_EQ(table.exact_value(key), value);
        const std::uint32_t client = key.src.ip.v4_value() - 0x0B000000;
        EXPECT_TRUE(visited.emplace(client, value).second)
            << "client " << client << " visited twice";
        // In slot order: (stage, bucket, way) only grows.
        const auto hit = table.lookup(key);
        ASSERT_TRUE(hit.has_value());
        ASSERT_FALSE(table.is_false_positive(key, hit->slot));
        const std::tuple slot{hit->slot.stage, hit->slot.bucket, hit->slot.way};
        EXPECT_TRUE(first || last < slot);
        last = slot;
        first = false;
      });
  EXPECT_EQ(used, table.size());
  EXPECT_EQ(visited, live);
}

TEST(DigestCuckooTable, InsertFailsWhenFull) {
  CuckooConfig config = small_config();
  config.stages = 2;
  config.buckets_per_stage = 2;
  config.ways = 1;
  DigestCuckooTable table(config);  // capacity 4
  std::size_t inserted = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    if (table.insert(make_flow(i), 0).inserted) ++inserted;
  }
  EXPECT_LE(inserted, 4u);
  EXPECT_GT(table.failed_inserts(), 0u);
}

TEST(DigestCuckooTable, FalsePositiveDetectionAndRelocation) {
  // 1-bit digests make collisions near-certain.
  CuckooConfig config = small_config();
  config.digest_bits = 1;
  config.buckets_per_stage = 4;
  DigestCuckooTable table(config);

  // Insert flows until some *new* flow falsely hits an existing entry.
  std::uint32_t probe = 100000;
  std::optional<net::FiveTuple> colliding;
  for (std::uint32_t i = 0; i < 64; ++i) table.insert(make_flow(i), 1);
  for (; probe < 110000; ++probe) {
    const auto flow = make_flow(probe);
    if (table.contains(flow)) continue;
    const auto hit = table.lookup(flow);
    if (hit && table.is_false_positive(flow, hit->slot)) {
      colliding = flow;
      break;
    }
  }
  ASSERT_TRUE(colliding.has_value()) << "no collision at 1-bit digest?";

  const auto hit = table.lookup(*colliding);
  ASSERT_TRUE(hit.has_value());
  if (table.relocate_for(*colliding, hit->slot)) {
    // After relocation the arriving flow must either miss or hit a slot
    // that is not a false positive against it at that location... the
    // guarantee is bucket separation at the relocated stage:
    const auto again = table.lookup(*colliding);
    if (again) {
      // Any remaining hit must not be the relocated entry's new home
      // conflicting in the same way (possible only via a *different*
      // resident — acceptable); the original conflict must be gone.
      EXPECT_FALSE(again->slot == hit->slot);
    }
  }
}

TEST(DigestCuckooTable, RelocationPreservesResidentEntry) {
  CuckooConfig config = small_config();
  config.digest_bits = 1;
  config.buckets_per_stage = 8;
  DigestCuckooTable table(config);
  for (std::uint32_t i = 0; i < 100; ++i) table.insert(make_flow(i), i % 4);

  for (std::uint32_t probe = 200000; probe < 210000; ++probe) {
    const auto flow = make_flow(probe);
    if (table.contains(flow)) continue;
    const auto hit = table.lookup(flow);
    if (hit && table.is_false_positive(flow, hit->slot)) {
      // Identify the resident via its exact value, then relocate.
      const std::uint32_t resident_value = hit->value;
      if (table.relocate_for(flow, hit->slot)) {
        // The resident is still present somewhere with its value intact:
        // scan all originally inserted flows for consistency.
        for (std::uint32_t i = 0; i < 100; ++i) {
          const auto f = make_flow(i);
          if (table.contains(f)) {
            EXPECT_EQ(table.exact_value(f).value_or(999), i % 4);
          }
        }
        (void)resident_value;
        return;
      }
    }
  }
  GTEST_SKIP() << "no relocatable collision found";
}

class CuckooOccupancy : public ::testing::TestWithParam<unsigned> {};

TEST_P(CuckooOccupancy, HighLoadFactorAcrossDigestWidths) {
  CuckooConfig config = small_config();
  config.digest_bits = GetParam();
  config.buckets_per_stage = 128;
  DigestCuckooTable table(config);
  const std::size_t target = table.capacity() * 9 / 10;  // 90% fill
  std::size_t inserted = 0;
  for (std::uint32_t i = 0; inserted < target && i < table.capacity() * 2;
       ++i) {
    if (table.insert(make_flow(i), 0).inserted) ++inserted;
  }
  EXPECT_GE(inserted, target);
  EXPECT_GE(table.occupancy(), 0.89);
}

INSTANTIATE_TEST_SUITE_P(DigestWidths, CuckooOccupancy,
                         ::testing::Values(8u, 12u, 16u, 24u));

}  // namespace
}  // namespace silkroad::asic
