// Shard layout: which event shard (sim/shard.h, docs/INVARIANTS.md
// "Cross-shard determinism") owns which DC, node and key. Every Cluster
// builds one, whatever its simulation's shard count, and it is the only
// place that knows the DC -> shard layout.
//
// K == 1 is the unsplit layout: every DC lives on shard 0, and DC d's
// coordinator lane is nodes_in_dc(d) in that order. K > 1 must be a multiple
// of the DC count: each DC d owns S = K / dc_count contiguous shard ids
// starting at d * S, its nodes are dealt round-robin across them, and the
// token space is cut into S equal ranges (TokenRing::range_of) so every key
// has exactly one home shard per DC. All per-shard cluster and workload
// state (RNG lanes, slot pools, counters, hint stores, open-loop sources)
// then follows key ownership: an operation on key k issued from DC d runs on
// shard `home_shard(d, k)`, whose coordinator lane is the nodes of d that
// shard owns. Replicas of one key may live on *other* shards of the same DC
// — those write fan-out legs are intra-DC cross-shard events, which is why
// the conservative lookahead (lookahead() below) also respects the intra-DC
// latency floors once S > 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/token_ring.h"
#include "common/check.h"
#include "common/time_types.h"
#include "net/latency_model.h"
#include "net/topology.h"
#include "sim/shard.h"

namespace harmony::cluster {

class ShardMap {
 public:
  /// A DC's contiguous shard id range [first, first + count).
  struct Range {
    std::uint32_t first = 0;
    std::uint32_t count = 1;
  };

  /// Lay `shard_count` shards over `topo`: 1 (every DC on shard 0) or a
  /// multiple of the DC count (S = shard_count / dc_count per DC). Every DC
  /// needs at least S nodes (each shard must own a coordinator candidate).
  void build(const net::Topology& topo, std::uint32_t shard_count) {
    const auto dcs = static_cast<std::uint32_t>(topo.dc_count());
    HARMONY_CHECK_MSG(shard_count == 1 || shard_count % dcs == 0,
                      "the shard count must be 1 or a multiple of the DC "
                      "count (the same number of key-range shards per DC)");
    per_dc_ = shard_count == 1 ? 1 : shard_count / dcs;
    dc_stride_ = shard_count == 1 ? 0 : per_dc_;
    // Nodes deal round-robin over their DC's shard range, in nodes_in_dc
    // order — deterministic, balanced, and with S == 1 the whole DC.
    node_shard_.assign(topo.node_count(), 0);
    lanes_.assign(static_cast<std::size_t>(dcs) * per_dc_, {});
    for (net::DcId d = 0; d < dcs; ++d) {
      const auto& nodes = topo.nodes_in_dc(d);
      HARMONY_CHECK_MSG(per_dc_ <= nodes.size(),
                        "a DC cannot split into more shards than it has "
                        "nodes (every shard needs a coordinator)");
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto k = static_cast<std::uint32_t>(i % per_dc_);
        node_shard_[nodes[i]] =
            static_cast<std::uint8_t>(dc_range(d).first + k);
        lanes_[d * per_dc_ + k].push_back(nodes[i]);
      }
    }
  }

  /// The conservative lookahead of a `shard_count`-shard layout over
  /// `dc_count` DCs: the minimum latency floor over every hop class that can
  /// cross shards. Cross-DC hops do once DCs sit on different shards, intra-DC
  /// (same-rack, same-DC) hops once a DC splits; loopback never does. With
  /// one shard nothing crosses: sim::ShardSet::kNoLookahead.
  static SimDuration lookahead(const net::TieredLatencyModel::Params& lat,
                               std::size_t dc_count,
                               std::uint32_t shard_count) {
    SimDuration floor = sim::ShardSet::kNoLookahead;
    if (shard_count == 1) return floor;
    if (dc_count > 1) floor = lat.cross_dc.floor;
    if (shard_count > dc_count) {
      floor = std::min({floor, lat.same_rack.floor, lat.same_dc.floor});
    }
    return floor;
  }

  /// Key-range shards per DC (S; 1 for the unsplit layout).
  std::uint32_t shards_per_dc() const { return per_dc_; }
  /// DC `d`'s shard range.
  Range dc_range(net::DcId d) const { return {d * dc_stride_, per_dc_}; }
  /// The shard owning a node's replica state.
  std::uint8_t node_shard(net::NodeId n) const { return node_shard_[n]; }

  /// The shard owning key `key`'s range within DC `dc` — where an operation
  /// on that key issued from that DC homes. S == 1 short-circuits before
  /// hashing, so an unsplit DC never pays token_for.
  std::uint32_t home_shard(net::DcId dc, Key key) const {
    const std::uint32_t first = dc_range(dc).first;
    if (per_dc_ == 1) return first;
    return first + TokenRing::range_of(TokenRing::token_for(key), per_dc_);
  }

  /// Admission bucket of a request from DC `dc` executing on `shard` (which
  /// must be one of the DC's shards): one bucket per DC with one shard, one
  /// per shard otherwise — dc_count * S buckets in all.
  std::uint32_t admission_bucket(net::DcId dc, std::uint32_t shard) const {
    const std::uint32_t k = shard - dc_range(dc).first;
    HARMONY_CHECK_MSG(k < per_dc_,
                      "a request must execute on a shard of its client's DC");
    return dc * per_dc_ + k;
  }
  std::uint32_t admission_buckets() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  /// Coordinator candidates for a request from DC `dc` executing on
  /// `shard`: the DC's nodes that shard owns, in nodes_in_dc order.
  const std::vector<net::NodeId>& coordinators(net::DcId dc,
                                               std::uint32_t shard) const {
    return lanes_[admission_bucket(dc, shard)];
  }

 private:
  std::uint32_t per_dc_ = 1;
  std::uint32_t dc_stride_ = 0;  ///< first shard of DC d is d * dc_stride_
  std::vector<std::uint8_t> node_shard_;
  /// (DC, shard) coordinator lanes, DC-major: lane d * S + k holds DC d's
  /// nodes on its k-th shard.
  std::vector<std::vector<net::NodeId>> lanes_;
};

}  // namespace harmony::cluster
