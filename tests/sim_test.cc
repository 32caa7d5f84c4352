#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
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

TEST(Simulator, ReservedSequenceNumbersBreakTiesAsIfQueuedEarly) {
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t first = sim.reserve_seqs(2);
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_reserved(5, first + 1, [&] { order.push_back(1); });
  sim.schedule_reserved(5, first, [&] {
    order.push_back(0);
    // Same instant, later sequence number: runs after the reserved pair.
    sim.schedule_after(0, [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, RunUntilShortOfNextEventAcceptsEventsInTheGap) {
  Simulator sim;
  std::vector<Time> fired;
  sim.schedule_at(1000, [&] { fired.push_back(sim.now()); });
  sim.run_until(10);
  sim.schedule_at(20, [&] { fired.push_back(sim.now()); });
  sim.run_until(500);
  sim.schedule_at(600, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{20, 600, 1000}));
}

TEST(Simulator, CanceledTailDoesNotHoldTheClockBack) {
  Simulator sim;
  sim.schedule_at(5, [] {});
  sim.schedule_at(1000, [] {}).cancel();
  sim.run();  // pops the canceled event at 1000 last
  EXPECT_EQ(sim.now(), 5u);
  int fired = 0;
  sim.schedule_at(6, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorDeathTest, RejectsAKeyBeforeTheLastPopped) {
  Simulator sim;
  const std::uint64_t seq = sim.reserve_seqs(1);
  sim.schedule_at(10, [&] { sim.schedule_reserved(10, seq, [] {}); });
  EXPECT_DEATH(sim.run(), "does not follow the last popped key");
}

TEST(SimulatorDeathTest, RejectsTwoEventsUnderOneKey) {
  Simulator sim;
  const std::uint64_t seq = sim.reserve_seqs(1);
  sim.schedule_reserved(10, seq, [] {});
  sim.schedule_reserved(10, seq, [] {});
  EXPECT_DEATH(sim.run(), "two events share the key");
}

/// The reference the queue is checked against: a std::priority_queue over
/// (when, seq), discarding canceled events as they are popped.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(std::function<void(int)> fire)
      : fire_(std::move(fire)) {}

  Time now() const { return now_; }
  std::uint64_t executed_events() const { return executed_; }
  std::size_t pending_events() const { return heap_.size(); }
  /// The earliest queued time, canceled events included.
  Time next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.top().when;
  }

  void schedule_at(Time when, int id) { push(when, next_seq_++, id); }
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }
  void schedule_reserved(Time when, std::uint64_t seq, int id) {
    push(when, seq, id);
  }
  void cancel(int id) {
    if (queued_.contains(id)) canceled_.insert(id);
  }
  bool step_until(Time deadline) {
    while (!heap_.empty() && heap_.top().when <= deadline) {
      const Event top = heap_.top();
      heap_.pop();
      queued_.erase(top.id);
      if (canceled_.erase(top.id) != 0) continue;
      now_ = top.when;
      ++executed_;
      fire_(top.id);
      return true;
    }
    return false;
  }
  void run_until(Time deadline) {
    while (step_until(deadline)) {
    }
    if (now_ < deadline) now_ = deadline;
  }
  void run() {
    while (step_until(kTimeInfinity)) {
    }
  }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    int id;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  void push(Time when, std::uint64_t seq, int id) {
    heap_.push(Event{when, seq, id});
    queued_.insert(id);
  }

  std::function<void(int)> fire_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::set<int> queued_;
  std::set<int> canceled_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// Events with an id divisible by 3 schedule a child, of id kChild + id,
/// when they fire, some at the same instant; children schedule nothing.
constexpr int kChild = 1 << 24;

/// Runs one seeded random program against the Simulator and the reference
/// in lockstep and compares them after every operation.
void run_differential_program(std::uint64_t seed, int ops) {
  Simulator sim;
  std::vector<int> sim_log;
  std::vector<EventHandle> handles;  // by id; children are not cancelable
  std::function<void(int)> sim_fire = [&](int id) {
    sim_log.push_back(id);
    if (id < kChild && id % 3 == 0) {
      sim.schedule_after(static_cast<Time>(id % 7) * 3,
                         [&sim_fire, id] { sim_fire(kChild + id); });
    }
  };
  std::vector<int> ref_log;
  ReferenceSimulator* ref_ptr = nullptr;
  ReferenceSimulator ref([&](int id) {
    ref_log.push_back(id);
    if (id < kChild && id % 3 == 0) {
      ref_ptr->schedule_at(ref_ptr->now() + static_cast<Time>(id % 7) * 3,
                           kChild + id);
    }
  });
  ref_ptr = &ref;

  struct Block {
    std::uint64_t sim_first;
    std::uint64_t ref_first;
    std::vector<bool> used;
  };
  std::vector<Block> blocks;
  Rng rng(seed);
  int next_id = 0;
  const auto schedule = [&](Time when) {
    const int id = next_id++;
    handles.push_back(sim.schedule_at(when, [&sim_fire, id] { sim_fire(id); }));
    ref.schedule_at(when, id);
  };
  const auto schedule_reserved = [&](Time when) {
    for (Block& block : blocks) {
      for (std::size_t k = 0; k < block.used.size(); ++k) {
        if (block.used[k] || rng.bernoulli(0.5)) continue;
        block.used[k] = true;
        const int id = next_id++;
        handles.push_back(sim.schedule_reserved(
            when, block.sim_first + k, [&sim_fire, id] { sim_fire(id); }));
        ref.schedule_reserved(when, block.ref_first + k, id);
        return;
      }
    }
  };
  const auto delay = [&rng]() -> Time {
    switch (rng.uniform_int(8)) {
      case 0: return 0;
      case 1: return 1 + rng.uniform_int(3);
      case 2: return Time{1} << (20 + rng.uniform_int(20));  // far ahead
      default: return rng.uniform_int(200);
    }
  };

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t pick = rng.uniform_int(100);
    if (pick < 28) {
      schedule(sim.now() + delay());
    } else if (pick < 34) {
      const int id = next_id++;
      handles.push_back(
          sim.schedule_after(0, [&sim_fire, id] { sim_fire(id); }));
      ref.schedule_at(ref.now(), id);
    } else if (pick < 40) {
      const std::uint64_t n = 1 + rng.uniform_int(6);
      blocks.push_back({sim.reserve_seqs(n), ref.reserve_seqs(n),
                        std::vector<bool>(n, false)});
    } else if (pick < 50) {
      // A reserved number is older than every running event's, so it may
      // only be used after the current instant.
      schedule_reserved(sim.now() + 1 + delay());
    } else if (pick < 62) {
      if (next_id == 0) continue;
      // Any id ever issued: pending, canceled, fired or popped while
      // canceled (a stale handle).
      const auto id = static_cast<int>(rng.uniform_int(next_id));
      handles[static_cast<std::size_t>(id)].cancel();
      ref.cancel(id);
    } else if (pick < 80) {
      EXPECT_EQ(sim.step(), ref.step_until(kTimeInfinity));
    } else if (pick < 92) {
      // Stop short of the next queued event, then schedule into the gap
      // between the new now() and that event.
      const Time next = ref.next_time();
      if (next == kTimeInfinity || next <= sim.now() + 1) continue;
      const Time deadline = sim.now() + rng.uniform_int(next - sim.now());
      sim.run_until(deadline);
      ref.run_until(deadline);
      ASSERT_EQ(sim.now(), deadline);
      const Time gap = next - deadline;
      if (rng.bernoulli(0.5) && gap > 1) {
        schedule_reserved(deadline + 1 + rng.uniform_int(gap - 1));
      } else {
        schedule(deadline + rng.uniform_int(gap));
      }
    } else if (pick < 98) {
      const Time deadline = sim.now() + delay();
      sim.run_until(deadline);
      ref.run_until(deadline);
    } else {
      sim.run();
      ref.run();
      ASSERT_EQ(ref.pending_events(), 0u);
    }
    ASSERT_EQ(sim_log, ref_log) << "seed " << seed << " op " << op;
    ASSERT_EQ(sim.now(), ref.now()) << "seed " << seed << " op " << op;
    ASSERT_EQ(sim.executed_events(), ref.executed_events())
        << "seed " << seed << " op " << op;
    ASSERT_EQ(sim.pending_events(), ref.pending_events())
        << "seed " << seed << " op " << op;
  }
  sim.run();
  ref.run();
  EXPECT_EQ(sim_log, ref_log);
  EXPECT_EQ(sim.executed_events(), ref.executed_events());
}

TEST(Simulator, MatchesAReferenceQueueOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_differential_program(seed, 6000);
    if (HasFatalFailure()) return;
  }
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
