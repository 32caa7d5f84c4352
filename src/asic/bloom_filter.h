// Bloom filter on ASIC transactional memory — SilkRoad's TransitTable
// substrate (paper §4.3).
//
// Unlike the cuckoo ConnTable, a bloom filter needs no CPU involvement: each
// insert/query is a handful of hash-addressed single-bit register operations
// the ASIC performs at line rate with packet-transactional semantics. The
// price is false positives, which the 3-step update protocol keeps harmless
// (a falsely-matching SYN is redirected to the switch CPU, §4.3).
#pragma once

#include <cmath>
#include <cstdint>

#include "asic/register_array.h"
#include "check/sr_check.h"
#include "net/five_tuple.h"
#include "net/hash.h"

namespace silkroad::asic {

class BloomFilter {
 public:
  /// A filter of `bytes` SRAM (8 bits/byte of 1-bit registers) addressed by
  /// `num_hashes` independent hash functions. The paper's headline
  /// configuration is 256 bytes.
  BloomFilter(std::size_t bytes, unsigned num_hashes = 3,
              std::uint64_t seed = 0x7A4517ULL)
      : bits_(bytes * 8 == 0 ? 8 : bytes * 8),
        num_hashes_(num_hashes == 0 ? 1 : num_hashes),
        seed_(seed),
        registers_(bits_, 1) {}

  void insert(const net::FiveTuple& flow) {
    for (unsigned i = 0; i < num_hashes_; ++i) {
      const auto set = [](std::uint64_t) { return std::uint64_t{1}; };
      if (registers_.update(index_of(flow, i), set) == 0) ++set_bits_;
    }
    ++inserted_;
  }

  bool maybe_contains(const net::FiveTuple& flow) const {
    for (unsigned i = 0; i < num_hashes_; ++i) {
      if (registers_.read(index_of(flow, i)) == 0) return false;
    }
    return true;
  }

  void clear() {
    registers_.clear();
    inserted_ = 0;
    set_bits_ = 0;
  }

  std::size_t byte_count() const noexcept { return bits_ / 8; }
  unsigned num_hashes() const noexcept { return num_hashes_; }
  std::uint64_t inserted() const noexcept { return inserted_; }

  /// Fraction of set bits, from a running count (the capacity ledger polls
  /// it every few simulated ms). Debug builds re-count every register.
  double fill_ratio() const {
    SR_DCHECK(set_bits_ == count_set_bits());
    return static_cast<double>(set_bits_) / static_cast<double>(bits_);
  }

  /// Classical expected false-positive probability for n inserted keys:
  /// (1 - e^{-kn/m})^k.
  static double expected_fp_rate(std::size_t bits, unsigned k, std::size_t n) {
    if (bits == 0) return 1.0;
    const double exponent = -static_cast<double>(k) * static_cast<double>(n) /
                            static_cast<double>(bits);
    return std::pow(1.0 - std::exp(exponent), static_cast<double>(k));
  }

 private:
  std::size_t index_of(const net::FiveTuple& flow, unsigned i) const {
    return static_cast<std::size_t>(
        net::hash_five_tuple(flow, net::mix64(seed_ + 0x51F1 * (i + 1))) %
        bits_);
  }

  std::size_t count_set_bits() const {
    std::size_t ones = 0;
    for (std::size_t i = 0; i < bits_; ++i) ones += registers_.read(i);
    return ones;
  }

  std::size_t bits_;
  unsigned num_hashes_;
  std::uint64_t seed_;
  RegisterArray registers_;
  std::uint64_t inserted_ = 0;
  std::size_t set_bits_ = 0;
};

}  // namespace silkroad::asic
