// Consistent-hash token ring with virtual nodes and Cassandra's two
// replica-placement strategies, each one plain clockwise walk over the ring:
//   - SimpleStrategy: the rf distinct nodes clockwise from the key's token.
//   - NetworkTopologyStrategy: clockwise over the same ring, admitting a node
//     while its datacenter still owes replicas (rf_per_dc[d] in DC d), so the
//     primary replica comes first and the DCs interleave in ring order.
//
// Placement depends only on a key's *arc*: the index of the first vnode at or
// after its token (wrapping to 0). A cluster walks each arc once at
// construction (arc_replicas_*) and serves every lookup as a table read at
// arc_of(key), an O(1) expected bucket probe. replicas_simple/nts find the
// arc by binary search instead and walk on every call: they are the
// independent check on arc_of and the set-up cost's yardstick, not the
// request path.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/versioned_value.h"
#include "common/distributions.h"
#include "common/small_vec.h"
#include "net/topology.h"

namespace harmony::cluster {

/// Upper bounds baked into the inline request-path containers. The paper's
/// deployments use rf 3–5 over 2 DCs; 8 leaves headroom while keeping pending
/// request state pocket-sized. Exceeding either fails a loud contract check.
inline constexpr int kMaxReplicas = 8;
inline constexpr std::size_t kMaxDcs = 8;

using ReplicaList = SmallVec<net::NodeId, kMaxReplicas>;
using DcCounts = SmallVec<int, kMaxDcs>;

class TokenRing {
 public:
  TokenRing(const net::Topology& topo, int vnodes_per_node, std::uint64_t seed);

  /// Hash a key onto the token space.
  static std::uint64_t token_for(Key key) { return mix64(key); }

  /// SimpleStrategy placement of `key` (rf <= kMaxReplicas).
  void replicas_simple(Key key, int rf, ReplicaList& out) const;
  /// NetworkTopologyStrategy placement of `key`: rf_per_dc[d] replicas in
  /// DC d, in clockwise order from the token.
  void replicas_nts(Key key, const DcCounts& rf_per_dc, ReplicaList& out) const;

  std::size_t vnode_count() const { return ring_.size(); }

  /// The key's arc: the index of the first vnode at or after its token,
  /// wrapping to 0 past the last one (exactly a lower_bound over the ring).
  /// Every key of one arc has the same replicas. The token's top bits pick a
  /// bucket, and with about four buckets per vnode most buckets hold at most
  /// one vnode, whose token alone decides between two arcs without a branch;
  /// only a crowded bucket scans on.
  std::size_t arc_of(Key key) const {
    const std::uint64_t t = token_for(key);
    const ArcBucket& b = arc_bucket_[t >> arc_shift_];
    std::size_t i = b.arc + (t > b.token ? 1 : 0);
    if (b.crowded) [[unlikely]] {
      while (i < ring_.size() && ring_[i].token < t) ++i;
    }
    return i == ring_.size() ? 0 : i;
  }

  /// Replica set of every key in `arc` (< vnode_count()): what
  /// replicas_simple/nts return for any key with arc_of(key) == arc.
  void arc_replicas_simple(std::size_t arc, int rf, ReplicaList& out) const;
  void arc_replicas_nts(std::size_t arc, const DcCounts& rf_per_dc,
                        ReplicaList& out) const;

  /// Fraction of the token space owned by each node (for balance tests).
  std::vector<double> ownership() const;

 private:
  struct VNode {
    std::uint64_t token;
    net::NodeId node;
  };
  const net::Topology* topo_;
  std::vector<VNode> ring_;  // sorted by (token, node)
  // arc_of's bucket table. Bucket b covers tokens [b << arc_shift_,
  // (b + 1) << arc_shift_); `arc` is the ring index of the first vnode at or
  // after its lower edge (ring_.size() when none is), `token` that vnode's
  // token (all-ones when none is), and `crowded` is set when the vnode after
  // it also falls in the bucket.
  struct ArcBucket {
    std::uint64_t token;
    std::uint32_t arc;
    std::uint32_t crowded;
  };
  std::vector<ArcBucket> arc_bucket_;
  unsigned arc_shift_ = 0;

  std::size_t first_at_or_after(std::uint64_t token) const;

  // The two walks, clockwise from ring index `start` (a key's arc).
  void walk_simple(std::size_t start, int rf, ReplicaList& out) const;
  void walk_nts(std::size_t start, const DcCounts& rf_per_dc,
                ReplicaList& out) const;
};

}  // namespace harmony::cluster
