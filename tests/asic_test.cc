#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "asic/bloom_filter.h"
#include "asic/learning_filter.h"
#include "asic/meter.h"
#include "asic/register_array.h"
#include "asic/resources.h"
#include "asic/sram.h"
#include "asic/switch_cpu.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace silkroad::asic {
namespace {

net::FiveTuple make_flow(std::uint32_t client) {
  return net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1000},
                        {net::IpAddress::v4(0x14000001), 80},
                        net::Protocol::kTcp};
}

// --- SRAM geometry -----------------------------------------------------------

TEST(Sram, WordPackingMatchesPaper) {
  // §6.1: 28-bit entries pack exactly 4 per 112-bit word.
  EXPECT_EQ(entries_per_word(28), 4u);
  EXPECT_EQ(words_for_entries(8, 28), 2u);
  EXPECT_EQ(words_for_entries(9, 28), 3u);
  // 1M connections at 28 bits ~ 3.5 MB.
  EXPECT_NEAR(static_cast<double>(sram_bytes_for_entries(1'000'000, 28)),
              3.5e6, 0.1e6);
}

TEST(Sram, GenerationsTrendUpward) {
  ASSERT_EQ(std::size(kAsicGenerations), 3u);
  EXPECT_LT(kAsicGenerations[0].sram_mb_high,
            kAsicGenerations[2].sram_mb_low + 50);
  EXPECT_GT(kAsicGenerations[2].capacity_tbps,
            kAsicGenerations[0].capacity_tbps);
}

// --- Learning filter ----------------------------------------------------------

TEST(LearningFilter, FlushesOnTimeout) {
  sim::Simulator sim;
  std::vector<std::vector<LearnEvent>> batches;
  LearningFilter filter(sim, {.capacity = 100, .timeout = sim::kMillisecond},
                        [&](std::vector<LearnEvent> b) {
                          batches.push_back(std::move(b));
                        });
  filter.learn(make_flow(1), 10);
  filter.learn(make_flow(2), 11);
  EXPECT_EQ(filter.pending_count(), 2u);
  sim.run();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[0][0].flow, make_flow(1));
  EXPECT_EQ(batches[0][0].value, 10u);
  EXPECT_EQ(sim.now(), sim::kMillisecond);
  EXPECT_EQ(filter.pending_count(), 0u);
}

TEST(LearningFilter, FlushesWhenFull) {
  sim::Simulator sim;
  std::vector<std::size_t> batch_sizes;
  LearningFilter filter(
      sim, {.capacity = 4, .timeout = sim::kSecond},
      [&](std::vector<LearnEvent> b) { batch_sizes.push_back(b.size()); });
  for (std::uint32_t i = 0; i < 4; ++i) filter.learn(make_flow(i), i);
  // Capacity flush happens synchronously, before any timeout.
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 4u);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(LearningFilter, TimeoutRearmsAfterFlush) {
  sim::Simulator sim;
  int flushes = 0;
  LearningFilter filter(sim, {.capacity = 100, .timeout = sim::kMillisecond},
                        [&](std::vector<LearnEvent>) { ++flushes; });
  filter.learn(make_flow(1), 0);
  sim.run();
  EXPECT_EQ(flushes, 1);
  filter.learn(make_flow(2), 0);
  sim.run();
  EXPECT_EQ(flushes, 2);
  EXPECT_EQ(sim.now(), 2 * sim::kMillisecond);
}

// --- Switch CPU ----------------------------------------------------------------

TEST(SwitchCpu, ProcessesAtServiceRate) {
  sim::Simulator sim;
  SwitchCpu cpu(sim, {.tasks_per_second = 1000.0});  // 1 ms per task
  std::vector<sim::Time> completions;
  for (int i = 0; i < 5; ++i) {
    cpu.enqueue([&] { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(completions[static_cast<size_t>(i)],
              static_cast<sim::Time>(i + 1) * sim::kMillisecond);
  }
  EXPECT_EQ(cpu.completed_tasks(), 5u);
  EXPECT_TRUE(cpu.idle());
}

TEST(SwitchCpu, FifoOrder) {
  sim::Simulator sim;
  SwitchCpu cpu(sim, {.tasks_per_second = 1e6});
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) cpu.enqueue([&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SwitchCpu, MultiplePipesServeInParallel) {
  // §5.2: multiple cores handle insertions into different physical pipes.
  sim::Simulator sim;
  SwitchCpu cpu(sim, {.tasks_per_second = 1000.0, .pipes = 4});
  std::vector<sim::Time> completions;
  for (std::uint64_t i = 0; i < 8; ++i) {
    cpu.enqueue([&] { completions.push_back(sim.now()); }, /*shard=*/i);
  }
  sim.run();
  ASSERT_EQ(completions.size(), 8u);
  // 8 tasks over 4 pipes at 1 ms each: done in 2 ms, not 8 ms.
  EXPECT_EQ(sim.now(), 2 * sim::kMillisecond);
}

TEST(SwitchCpu, SameShardStaysOrdered) {
  sim::Simulator sim;
  SwitchCpu cpu(sim, {.tasks_per_second = 1000.0, .pipes = 4});
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    cpu.enqueue([&order, i] { order.push_back(i); }, /*shard=*/42);
  }
  sim.run();
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(sim.now(), 6 * sim::kMillisecond);  // one pipe, serialized
}

TEST(SwitchCpu, TasksEnqueuedFromTasksRun) {
  sim::Simulator sim;
  SwitchCpu cpu(sim, {.tasks_per_second = 1000.0});
  int done = 0;
  cpu.enqueue([&] {
    ++done;
    cpu.enqueue([&] { ++done; });
  });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(sim.now(), 2 * sim::kMillisecond);
}

// --- Register array -------------------------------------------------------------

TEST(RegisterArray, WidthWrapAndTransactionalUpdate) {
  RegisterArray regs(8, 4);  // 4-bit cells
  regs.write(0, 0x1F);
  EXPECT_EQ(regs.read(0), 0xFu);  // masked to width
  const auto old = regs.update(1, [](std::uint64_t v) { return v + 3; });
  EXPECT_EQ(old, 0u);
  EXPECT_EQ(regs.read(1), 3u);
  EXPECT_EQ(regs.total_bits(), 32u);
}

TEST(RegisterArray, SaturatingIncrement) {
  RegisterArray regs(2, 2);  // max value 3
  regs.increment(0, 2);
  regs.increment(0, 5);
  EXPECT_EQ(regs.read(0), 3u);  // saturated, not wrapped
}

TEST(RegisterArray, OutOfRangeThrows) {
  RegisterArray regs(2, 8);
  EXPECT_THROW(regs.read(5), std::out_of_range);
}

// --- Bloom filter ---------------------------------------------------------------

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bloom(256, 3);
  for (std::uint32_t i = 0; i < 200; ++i) bloom.insert(make_flow(i));
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(bloom.maybe_contains(make_flow(i)));
  }
}

TEST(BloomFilter, ClearEmptiesFilter) {
  BloomFilter bloom(64, 3);
  bloom.insert(make_flow(1));
  EXPECT_TRUE(bloom.maybe_contains(make_flow(1)));
  bloom.clear();
  EXPECT_FALSE(bloom.maybe_contains(make_flow(1)));
  EXPECT_DOUBLE_EQ(bloom.fill_ratio(), 0.0);
}

// Set bits counted from scratch: the filter's own index rule
// (hash_five_tuple per hash unit, modulo the bit count) over every insert.
double recount_fill(const std::vector<net::FiveTuple>& flows,
                    std::size_t bytes, unsigned k, std::uint64_t seed) {
  std::set<std::size_t> bits;
  for (const auto& flow : flows) {
    for (unsigned i = 0; i < k; ++i) {
      bits.insert(static_cast<std::size_t>(
          net::hash_five_tuple(flow, net::mix64(seed + 0x51F1 * (i + 1))) %
          (bytes * 8)));
    }
  }
  return static_cast<double>(bits.size()) / static_cast<double>(bytes * 8);
}

TEST(BloomFilter, FillRatioMatchesAnIndependentCount) {
  constexpr std::size_t kBytes = 64;
  constexpr std::uint64_t kSeed = 0x7A4517ULL;
  BloomFilter bloom(kBytes, 3, kSeed);
  sim::Rng rng(11);
  std::vector<net::FiveTuple> inserted;
  for (int i = 0; i < 120; ++i) {
    inserted.push_back(make_flow(static_cast<std::uint32_t>(rng.next())));
    bloom.insert(inserted.back());
    ASSERT_DOUBLE_EQ(bloom.fill_ratio(),
                     recount_fill(inserted, kBytes, 3, kSeed))
        << "after " << inserted.size() << " inserts";
  }
  EXPECT_GT(bloom.fill_ratio(), 0.3);

  // Re-inserting one flow sets no new bits.
  bloom.clear();
  EXPECT_DOUBLE_EQ(bloom.fill_ratio(), 0.0);
  const double one = recount_fill({make_flow(7)}, kBytes, 3, kSeed);
  for (int i = 0; i < 10; ++i) {
    bloom.insert(make_flow(7));
    EXPECT_DOUBLE_EQ(bloom.fill_ratio(), one);
  }
  EXPECT_EQ(bloom.inserted(), 10u);

  // clear() zeroes the count along with the registers.
  bloom.clear();
  EXPECT_DOUBLE_EQ(bloom.fill_ratio(), 0.0);
  bloom.insert(make_flow(8));
  EXPECT_DOUBLE_EQ(bloom.fill_ratio(),
                   recount_fill({make_flow(8)}, kBytes, 3, kSeed));
}

class BloomFp : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BloomFp, FalsePositiveRateNearTheory) {
  const std::size_t bytes = GetParam();
  BloomFilter bloom(bytes, 3);
  const std::size_t n = bytes;  // load factor k*n/m = 3/8
  for (std::uint32_t i = 0; i < n; ++i) bloom.insert(make_flow(i));
  std::size_t fp = 0;
  const std::size_t probes = 20000;
  for (std::uint32_t i = 0; i < probes; ++i) {
    if (bloom.maybe_contains(make_flow(1'000'000 + i))) ++fp;
  }
  const double expected =
      BloomFilter::expected_fp_rate(bytes * 8, 3, n);
  const double measured = static_cast<double>(fp) / probes;
  EXPECT_NEAR(measured, expected, expected * 0.5 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BloomFp,
                         ::testing::Values(std::size_t{8}, std::size_t{64},
                                           std::size_t{256}, std::size_t{1024}));

// --- Meter (RFC 4115) ------------------------------------------------------------

TEST(Meter, MarksGreenUnderCommittedRate) {
  TwoRateThreeColorMeter meter({.cir_bps = 8e6,  // 1 MB/s
                                .eir_bps = 8e6,
                                .cbs_bytes = 10000,
                                .ebs_bytes = 10000});
  // Send 0.5 MB/s: 500-byte packet every millisecond.
  sim::Time t = 0;
  for (int i = 0; i < 1000; ++i) {
    t += sim::kMillisecond;
    EXPECT_EQ(meter.mark(t, 500), MeterColor::kGreen);
  }
}

TEST(Meter, MarksRedWhenBothBucketsExhausted) {
  TwoRateThreeColorMeter meter({.cir_bps = 8000,  // 1 KB/s
                                .eir_bps = 8000,
                                .cbs_bytes = 1000,
                                .ebs_bytes = 1000});
  // Burst far beyond CBS+EBS at t=1s.
  int green = 0, yellow = 0, red = 0;
  for (int i = 0; i < 100; ++i) {
    switch (meter.mark(sim::kSecond, 100)) {
      case MeterColor::kGreen: ++green; break;
      case MeterColor::kYellow: ++yellow; break;
      case MeterColor::kRed: ++red; break;
    }
  }
  // ~2KB of bucket (CBS 1000 + 1s refill 1000 capped at CBS => 1000) + EBS.
  EXPECT_GT(green, 0);
  EXPECT_GT(yellow, 0);
  EXPECT_GT(red, 0);
  EXPECT_EQ(green + yellow + red, 100);
}

TEST(Meter, LongRunRateAccuracyWithinOnePercent) {
  // §5.2: the paper measures <1% average marking error. Offer 2x the
  // committed rate; green share must be 50% +- 1%.
  const double cir = 1e9;  // 1 Gbps
  TwoRateThreeColorMeter meter({.cir_bps = cir,
                                .eir_bps = cir,
                                .cbs_bytes = 64 * 1024,
                                .ebs_bytes = 64 * 1024});
  const std::uint32_t pkt = 1000;
  const double offered_bps = 2e9;
  const double pkts_per_sec = offered_bps / (pkt * 8);
  const sim::Time gap =
      static_cast<sim::Time>(static_cast<double>(sim::kSecond) / pkts_per_sec);
  sim::Time t = 0;
  std::uint64_t green_bytes = 0, total_bytes = 0;
  for (int i = 0; i < 500000; ++i) {
    t += gap;
    if (meter.mark(t, pkt) == MeterColor::kGreen) green_bytes += pkt;
    total_bytes += pkt;
  }
  const double green_share =
      static_cast<double>(green_bytes) / static_cast<double>(total_bytes);
  EXPECT_NEAR(green_share, 0.5, 0.01);
}

TEST(Meter, SramFor40kMetersAboutOnePercent) {
  // §5.2: 40K meter instances ~ 1% of a ~60 MB SRAM budget.
  const double bytes =
      40000.0 * TwoRateThreeColorMeter::sram_bits_per_instance() / 8;
  EXPECT_LT(bytes / (60e6), 0.012);
}

// --- Resource model ---------------------------------------------------------------

TEST(Resources, SilkRoadRatiosNearPaperTable2) {
  const ResourceVector usage = silkroad_usage(SilkRoadLayout{});
  const ResourceVector pct = usage.percent_of(baseline_switch_p4_usage());
  const ResourceVector paper = paper_table2_reference();
  EXPECT_NEAR(pct.match_crossbar_bits, paper.match_crossbar_bits, 8.0);
  EXPECT_NEAR(pct.sram_bytes, paper.sram_bytes, 6.0);
  EXPECT_DOUBLE_EQ(pct.tcam_bytes, 0.0);
  EXPECT_NEAR(pct.vliw_actions, paper.vliw_actions, 5.0);
  EXPECT_NEAR(pct.hash_bits, paper.hash_bits, 10.0);
  EXPECT_NEAR(pct.stateful_alus, paper.stateful_alus, 5.0);
  EXPECT_NEAR(pct.phv_bits, paper.phv_bits, 0.5);
}

TEST(Resources, UsageScalesWithConnections) {
  SilkRoadLayout one_m;
  SilkRoadLayout ten_m;
  ten_m.connections = 10'000'000;
  const auto small = silkroad_usage(one_m);
  const auto large = silkroad_usage(ten_m);
  EXPECT_GT(large.sram_bytes, 8 * small.sram_bytes * 0.9);
  // Non-memory resources barely move with table size.
  EXPECT_EQ(large.vliw_actions, small.vliw_actions);
  EXPECT_EQ(large.stateful_alus, small.stateful_alus);
}

TEST(Resources, TenMillionConnectionsFitTofinoClassSram) {
  // §5.2: "up to 10M connections can fit in the on-chip SRAM".
  SilkRoadLayout layout;
  layout.connections = 10'000'000;
  const auto usage = silkroad_usage(layout);
  const ChipModel chip;
  EXPECT_LT(usage.sram_bytes, chip.totals().sram_bytes);
}

TEST(Resources, ChipTotalsInTable1Band) {
  const ChipModel chip;
  const double sram_mb = chip.totals().sram_bytes / 1e6;
  EXPECT_GE(sram_mb, 40.0);
  EXPECT_LE(sram_mb, 110.0);
}

}  // namespace
}  // namespace silkroad::asic
