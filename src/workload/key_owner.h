// Key ownership for one workload lane under key-range sharding.
//
// A lane (the runner's closed-loop op stream, or one open-loop source) runs
// on one event shard of its DC, and an operation on key k issued from DC d
// must execute on Cluster::home_shard(d, k) (cluster/shard_map.h). So a lane
// keeps only keys its shard owns: distribution draws are rejection-sampled
// and interleaved insert lanes are skip-scanned. Unsharded, or with one shard
// per DC, every key is owned and each helper returns its first candidate —
// RNG consumption is then identical to an unfiltered stream.
#pragma once

#include <cstdint>

#include "cluster/cluster.h"
#include "common/check.h"

namespace harmony::workload {

class KeyOwner {
 public:
  KeyOwner(const cluster::Cluster& cluster, net::DcId dc, std::uint32_t shard)
      : cluster_(&cluster), dc_(dc), shard_(shard) {}

  bool owns(cluster::Key key) const {
    return cluster_->home_shard(dc_, key) == shard_;
  }

  /// Next owned key of the interleaved insert lane `first + n * stride`,
  /// starting at n = `seq` (advanced past the returned key). Unowned lane
  /// keys are skipped and never inserted; lanes are disjoint, so uniqueness
  /// holds. Ownership is ~1/S per step, so the scan is geometric with mean S.
  cluster::Key next_insert(std::uint64_t first, std::uint64_t stride,
                           std::uint64_t& seq) const {
    for (int probe = 0;; ++probe) {
      HARMONY_CHECK_MSG(probe < 4096,
                        "insert-lane skip-scan found no owned key");
      const cluster::Key key = first + seq++ * stride;
      if (owns(key)) return key;
    }
  }

  /// Repeat `candidate` (one whole draw, every RNG pull included) until it
  /// returns an owned key, so the accepted stream stays i.i.d.
  template <typename Candidate>
  cluster::Key draw(Candidate&& candidate) const {
    for (int tries = 1;; ++tries) {
      HARMONY_CHECK_MSG(tries < 65536,
                        "key ownership rejection sampling did not converge "
                        "(degenerate key distribution vs shard ranges)");
      const cluster::Key key = candidate();
      if (owns(key)) return key;
    }
  }

 private:
  const cluster::Cluster* cluster_;
  net::DcId dc_;
  std::uint32_t shard_;
};

}  // namespace harmony::workload
