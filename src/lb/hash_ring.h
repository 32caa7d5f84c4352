// Classic consistent-hash ring (Karger et al.) with virtual nodes.
//
// One more point in the design space the paper's baselines draw from: SLBs
// use consistent hashing so that DIP-pool changes re-map only ~1/N of the
// keyspace even *without* per-connection state. The ring trades the
// near-perfect balance of Maglev for cheap incremental updates (no O(M)
// table rebuild). Exposed so the hash-churn ablation bench can compare
// ECMP-compact, resilient slots, Maglev, and the ring on equal terms.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/endpoint.h"
#include "net/five_tuple.h"
#include "net/hash.h"

namespace silkroad::lb {

class HashRing {
 public:
  /// `vnodes` virtual nodes per backend smooth the load distribution
  /// (classic rule of thumb: 100-200 for ~10% imbalance).
  explicit HashRing(std::size_t vnodes = 160, std::uint64_t seed = 0x41A6ULL)
      : vnodes_(vnodes == 0 ? 1 : vnodes), seed_(seed) {}

  /// Adds a backend (its virtual nodes join the ring). No other backend's
  /// arcs are disturbed beyond those the new nodes split.
  void add(const net::Endpoint& backend);

  /// Removes a backend; its arcs fall to their ring successors.
  bool remove(const net::Endpoint& backend);

  /// First virtual node clockwise from the flow's hash point.
  std::optional<net::Endpoint> select(const net::FiveTuple& flow) const;

  std::size_t backends() const noexcept { return backend_count_; }

  /// Fraction of the keyspace owned by each backend (balance diagnostic),
  /// estimated over `samples` random points.
  std::vector<std::pair<net::Endpoint, double>> ownership(
      std::size_t samples = 20000) const;

 private:
  std::uint64_t vnode_point(const net::Endpoint& backend,
                            std::size_t replica) const;

  std::size_t vnodes_;
  std::uint64_t seed_;
  std::map<std::uint64_t, net::Endpoint> ring_;
  std::size_t backend_count_ = 0;
};

}  // namespace silkroad::lb
