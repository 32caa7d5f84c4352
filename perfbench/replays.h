// Isolation replays: the inner layers' public functions timed alone on the
// tuples and table occupancy of a run, so the traced run's time can be split
// between layers without timers inside the library.
#pragma once

#include <cstddef>
#include <vector>

#include "asic/cuckoo_table.h"
#include "net/endpoint.h"
#include "net/five_tuple.h"

namespace perfbench {

struct ReplayInputs {
  std::vector<silkroad::net::FiveTuple> tuples;
  /// ConnTable geometry of the run and the entry count at its peak.
  silkroad::asic::CuckooConfig conn_table;
  std::size_t peak_entries = 0;
  silkroad::net::Endpoint vip;
  std::vector<silkroad::net::Endpoint> pool;
  /// Event-queue depth the run peaked at.
  std::size_t queue_depth = 0;
};

/// Nanoseconds per call, each the median of several timed passes.
struct ReplayResult {
  double hash_ns = 0;      ///< net::hash_five_tuple
  double digest_ns = 0;    ///< net::connection_digest (16 bits)
  double lookup_ns = 0;    ///< DigestCuckooTable::lookup, hitting
  double insert_ns = 0;    ///< DigestCuckooTable::insert at peak occupancy
  double erase_ns = 0;     ///< DigestCuckooTable::erase at peak occupancy
  double bloom_ns = 0;     ///< BloomFilter::maybe_contains
  double select_ns = 0;    ///< VipVersionManager::select
  double pcc_ns = 0;       ///< PccTracker, per start/observe/finish call
  double event_ns = 0;     ///< sim::Simulator schedule_at + step
};

ReplayResult run_replays(const ReplayInputs& inputs);

}  // namespace perfbench
