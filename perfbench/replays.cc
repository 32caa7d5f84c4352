#include "replays.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "asic/bloom_filter.h"
#include "core/silkroad_switch.h"
#include "core/version_manager.h"
#include "lb/pcc_tracker.h"
#include "net/hash.h"
#include "sim/event_queue.h"
#include "traced_balancer.h"

namespace perfbench {

using namespace silkroad;

namespace {

/// Keeps replayed results observable so the compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Passes over the tuple set so one timed pass makes at least this many
/// calls (about a millisecond or more).
constexpr std::size_t kMinOpsPerPass = 200'000;
constexpr std::size_t kPasses = 5;

std::size_t reps_for(std::size_t per_rep) {
  return per_rep == 0 ? 1 : (kMinOpsPerPass + per_rep - 1) / per_rep;
}

/// Median over kPasses of (ns of one `pass()` call) / `ops`.
template <typename Pass>
double median_ns(std::size_t ops, Pass&& pass) {
  std::array<double, kPasses> samples{};
  for (double& sample : samples) {
    const std::int64_t start = now_ns();
    pass();
    sample = static_cast<double>(now_ns() - start) /
             static_cast<double>(std::max<std::size_t>(1, ops));
  }
  std::sort(samples.begin(), samples.end());
  return samples[kPasses / 2];
}

void replay_cuckoo(const ReplayInputs& in, ReplayResult& out) {
  asic::DigestCuckooTable table(in.conn_table);
  const std::size_t want = std::min(
      in.tuples.size(),
      in.peak_entries == 0 ? table.capacity() * 8 / 10 : in.peak_entries);
  std::vector<net::FiveTuple> resident;
  resident.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    if (table.insert(in.tuples[i], 1).inserted) resident.push_back(in.tuples[i]);
  }
  if (resident.empty()) return;

  const std::size_t lookup_reps = reps_for(resident.size());
  out.lookup_ns = median_ns(lookup_reps * resident.size(), [&] {
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < lookup_reps; ++r) {
      for (const auto& tuple : resident) {
        const auto hit = table.lookup(tuple);
        acc += hit ? hit->value : 0;
      }
    }
    g_sink = g_sink + acc;
  });

  // Erase and re-insert one slice, so the table stays at peak occupancy.
  const std::size_t batch = std::min<std::size_t>(1024, resident.size());
  const std::size_t churn_reps = reps_for(batch) / 8 + 1;
  std::array<double, kPasses> erase_samples{};
  std::array<double, kPasses> insert_samples{};
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    std::int64_t erase_ns = 0;
    std::int64_t insert_ns = 0;
    for (std::size_t r = 0; r < churn_reps; ++r) {
      std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < batch; ++i) table.erase(resident[i]);
      std::int64_t t1 = now_ns();
      for (std::size_t i = 0; i < batch; ++i) table.insert(resident[i], 1);
      std::int64_t t2 = now_ns();
      erase_ns += t1 - t0;
      insert_ns += t2 - t1;
    }
    const auto ops = static_cast<double>(churn_reps * batch);
    erase_samples[pass] = static_cast<double>(erase_ns) / ops;
    insert_samples[pass] = static_cast<double>(insert_ns) / ops;
  }
  std::sort(erase_samples.begin(), erase_samples.end());
  std::sort(insert_samples.begin(), insert_samples.end());
  out.erase_ns = erase_samples[kPasses / 2];
  out.insert_ns = insert_samples[kPasses / 2];
}

void replay_events(const ReplayInputs& in, ReplayResult& out) {
  sim::Simulator sim;
  const net::FiveTuple& sample = in.tuples.front();
  // Park the run's queue depth far in the future; every timed event lands
  // ahead of it, so each schedule and step works against that heap depth.
  const sim::Time parked = 1000 * sim::kHour;
  for (std::size_t i = 0; i < in.queue_depth; ++i) {
    sim.schedule_at(parked + static_cast<sim::Time>(i), [sample] {
      g_sink = g_sink + sample.src.port;
    });
  }
  out.event_ns = median_ns(kMinOpsPerPass, [&] {
    for (std::size_t i = 0; i < kMinOpsPerPass; ++i) {
      const net::FiveTuple& tuple = in.tuples[i % in.tuples.size()];
      sim.schedule_at(sim.now() + 1, [tuple] {
        g_sink = g_sink + tuple.src.port;
      });
      sim.step();
    }
  });
}

}  // namespace

ReplayResult run_replays(const ReplayInputs& in) {
  ReplayResult out;
  if (in.tuples.empty()) return out;
  const std::size_t n = in.tuples.size();
  const std::size_t reps = reps_for(n);

  out.hash_ns = median_ns(reps * n, [&] {
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& tuple : in.tuples) {
        acc ^= net::hash_five_tuple(tuple, r);
      }
    }
    g_sink = g_sink + acc;
  });
  out.digest_ns = median_ns(reps * n, [&] {
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& tuple : in.tuples) {
        acc += net::connection_digest(tuple, 16);
      }
    }
    g_sink = g_sink + acc;
  });

  replay_cuckoo(in, out);

  // The TransitTable geometry every workload runs with.
  const core::SilkRoadSwitch::Config transit;
  asic::BloomFilter bloom(transit.transit_table_bytes, transit.transit_hashes);
  for (std::size_t i = 0; i < std::min<std::size_t>(32, n); ++i) {
    bloom.insert(in.tuples[i]);
  }
  out.bloom_ns = median_ns(reps * n, [&] {
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& tuple : in.tuples) acc += bloom.maybe_contains(tuple);
    }
    g_sink = g_sink + acc;
  });

  const core::VipVersionManager versions(in.vip, in.pool, {});
  out.select_ns = median_ns(reps * n, [&] {
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& tuple : in.tuples) {
        const auto dip = versions.select(versions.current_version(), tuple);
        acc += dip ? dip->port : 0;
      }
    }
    g_sink = g_sink + acc;
  });

  const net::Endpoint& dip = in.pool.front();
  out.pcc_ns = median_ns(3 * reps * n, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      lb::PccTracker tracker;
      for (const auto& tuple : in.tuples) tracker.flow_started(tuple, dip, 0);
      for (const auto& tuple : in.tuples) tracker.observe(tuple, dip, 1);
      for (const auto& tuple : in.tuples) tracker.flow_finished(tuple);
      g_sink = g_sink + tracker.violations();
    }
  });

  replay_events(in, out);
  return out;
}

}  // namespace perfbench
