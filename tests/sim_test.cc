#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <vector>

#include "sim/distributions.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace silkroad::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
  EXPECT_EQ(from_seconds(-1.0), Time{0});
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, TiesExecuteInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.schedule_after(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 15u);
}

TEST(Simulator, CancellationPreventsExecution) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(5, [&] { handle.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_at(1, [&] { ++fired; });
  sim.run();
  handle.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilSkipsCanceledHeadBeyondDeadline) {
  Simulator sim;
  int fired = 0;
  auto canceled = sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  canceled.cancel();
  sim.run_until(50);
  EXPECT_EQ(fired, 0);  // the 100-event must NOT run early
}

// Handles point into the simulator's slot table, so it must stay put.
static_assert(!std::is_copy_constructible_v<Simulator> &&
              !std::is_move_constructible_v<Simulator> &&
              !std::is_copy_assignable_v<Simulator> &&
              !std::is_move_assignable_v<Simulator>);

TEST(Simulator, StaleHandleDoesNotCancelSlotsNextEvent) {
  Simulator sim;
  int first = 0;
  int second = 0;
  const auto stale = sim.schedule_at(1, [&] { ++first; });
  sim.run();
  // The fired event freed the only slot; the next event reuses it.
  sim.schedule_at(2, [&] { ++second; });
  stale.cancel();
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Simulator, EventCancelingItselfSparesItsSuccessor) {
  Simulator sim;
  int fired = 0;
  EventHandle self;
  self = sim.schedule_at(1, [&] {
    self.cancel();  // already running: a no-op
    // Takes the running event's slot, then the stale handle is tried again.
    sim.schedule_at(2, [&] { ++fired; });
    self.cancel();
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Simulator, CallbackReadsCapturesAfterSlotTableGrows) {
  Simulator sim;
  struct Context {
    Simulator* sim;
    int scheduled = 0;
    int seen_tag = 0;
  } context{&sim};
  // 16 bytes of captures: std::function keeps them inside the slot, so the
  // loop below reallocates the storage this closure was first placed in.
  sim.schedule_at(1, [ctx = &context, tag = 42] {
    for (int i = 0; i < 1000; ++i) {
      ctx->sim->schedule_at(2, [ctx] { ++ctx->scheduled; });
    }
    ctx->seen_tag = tag;
  });
  sim.run();
  EXPECT_EQ(context.seen_tag, 42);
  EXPECT_EQ(context.scheduled, 1000);
}

TEST(Simulator, CanceledEventLeavesClockAndCountAlone) {
  Simulator sim;
  sim.schedule_at(5, [] {});
  const auto handle = sim.schedule_at(10, [] {});
  handle.cancel();
  EXPECT_EQ(sim.pending_events(), 2u);  // counted until popped
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.now(), 5u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(123);
  Rng b = a.fork();
  Rng c = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (b.next() != c.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.uniform_int(10), 10u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(InverseNormalCdf, MatchesKnownQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.99), 2.3263478740, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.9599639845, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.025), -1.9599639845, 1e-6);
}

TEST(LogNormalByQuantiles, HitsTargetQuantiles) {
  const auto dist = LogNormalByQuantiles::from_median_p99(180.0, 6000.0);
  EXPECT_NEAR(dist.quantile(0.5), 180.0, 1e-6);
  EXPECT_NEAR(dist.quantile(0.99), 6000.0, 1.0);
}

TEST(LogNormalByQuantiles, SampleMedianConverges) {
  const auto dist = LogNormalByQuantiles::from_median_p99(10.0, 300.0);
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(dist.sample(rng));
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 10.0, 0.5);
}

TEST(EmpiricalCdf, FromSamplesQuantiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const auto cdf = EmpiricalCdf::from_samples(samples);
  EXPECT_NEAR(cdf.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(cdf.cdf(50.0), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(cdf.cdf(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(-5.0), 0.0);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
}

TEST(Zipf, PmfSumsToOneAndIsSkewed) {
  const Zipf zipf(100, 1.0);
  double total = 0;
  for (std::size_t k = 0; k < 100; ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(50));
}

TEST(Zipf, SampleFollowsPmf) {
  const Zipf zipf(10, 1.2);
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.pmf(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[5]) / n, zipf.pmf(5), 0.01);
}

}  // namespace
}  // namespace silkroad::sim
