// R10 companion header for r10_cpu.cc: a net::FlatMap member iterates in
// hash order just like a std::unordered_map.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/flat_map.h"

class Janitor {
 public:
  void sweep();

 private:
  net::FlatMap<std::uint64_t, int, Hash> pending_;
  std::unordered_map<std::uint64_t, int> stale_;
  std::vector<int> records_;
  Cpu cpu_;
};
