// Consistent-hash token ring with virtual nodes and two replica-placement
// strategies, mirroring Cassandra:
//   - SimpleStrategy: the rf distinct nodes clockwise from the key's token.
//   - NetworkTopologyStrategy: per-datacenter replica counts, each DC's
//     replicas chosen clockwise within that DC.
//
// Placement depends only on a key's *arc*: the index of the first vnode at or
// after its token (wrapping to 0). Both walks read the token only to rank
// vnodes clockwise, and that order is the same for every token of one arc,
// so a cluster computes each arc's replica set once (arc_replicas_*) and
// serves every lookup as a table read at arc_of(key), an O(1) expected
// bucket probe. The walks themselves keep a per-DC index (each DC's vnodes
// in token order), and NTS merges those DC-local walks by clockwise distance
// instead of scanning the global ring past foreign-DC vnodes. Replica sets
// are produced into fixed-capacity inline lists (ReplicaList); the
// std::vector-returning overloads remain for callers outside the request
// path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/versioned_value.h"
#include "common/check.h"
#include "common/distributions.h"
#include "common/small_vec.h"
#include "net/topology.h"

namespace harmony::cluster {

/// Upper bounds baked into the inline request-path containers. The paper's
/// deployments use rf 3–5 over 2 DCs; 8 leaves headroom while keeping pending
/// request state pocket-sized. Exceeding either fails a loud contract check.
/// Builds that need wider replica sets (geo deployments with many DCs) can
/// raise the bound: -DHARMONY_MAX_REPLICAS=<n> (CMake option of the same
/// name) resizes every inline request-path container in one place.
#ifndef HARMONY_MAX_REPLICAS
#define HARMONY_MAX_REPLICAS 8
#endif
inline constexpr int kMaxReplicas = HARMONY_MAX_REPLICAS;
static_assert(kMaxReplicas >= 2 && kMaxReplicas <= 64,
              "HARMONY_MAX_REPLICAS out of range");
inline constexpr std::size_t kMaxDcs = 8;

using ReplicaList = SmallVec<net::NodeId, kMaxReplicas>;
using DcCounts = SmallVec<int, kMaxDcs>;

class TokenRing {
 public:
  TokenRing(const net::Topology& topo, int vnodes_per_node, std::uint64_t seed);

  /// Hash a key onto the token space.
  static std::uint64_t token_for(Key key) { return mix64(key); }

  /// Key-range sharding: partition the token space [0, 2^64) into `ranges`
  /// equal contiguous ranges and return the index owning `token`. Computed
  /// as floor(token * ranges / 2^64) (a 128-bit multiply, no division), so
  /// range r covers tokens [ceil(r * 2^64 / ranges), ceil((r+1) * 2^64 /
  /// ranges)): range 0 always owns token 0, range `ranges - 1` always owns
  /// 2^64 - 1, and there is no wrap-around range — the ring's wrap (last
  /// vnode -> first vnode) stays a placement concern, not an ownership one.
  static std::uint32_t range_of(std::uint64_t token, std::uint32_t ranges) {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(token) * ranges) >> 64);
  }

  /// SimpleStrategy placement: rf distinct nodes clockwise from the token.
  std::vector<net::NodeId> replicas_simple(Key key, int rf) const;
  /// Allocation-free variant for the request path (rf <= kMaxReplicas).
  void replicas_simple(Key key, int rf, ReplicaList& out) const;

  /// NetworkTopologyStrategy placement. rf_per_dc[d] replicas in DC d.
  /// Order: clockwise from the token, so the "primary" replica comes first.
  std::vector<net::NodeId> replicas_nts(Key key,
                                        const std::vector<int>& rf_per_dc) const;
  /// Allocation-free variant for the request path.
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

  /// Replica set of every key in `arc` (< vnode_count()): what the walks
  /// above return for any key with arc_of(key) == arc.
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
  std::vector<std::vector<VNode>> dc_ring_;  // per-DC vnodes, same order
  // Skip table: next_in_dc_[d][g] is the dc_ring_[d] index of DC d's first
  // vnode at global ring position >= g (== dc_ring_[d].size() means "wrap to
  // 0"). Lets NTS seed all DC cursors from ONE global binary search.
  std::vector<std::vector<std::uint32_t>> next_in_dc_;
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

  // Placement cores, from the key's arc (`start`). fill_nts ranks vnodes by
  // clockwise distance from `t`, any token of that arc.
  template <typename Out>
  void fill_simple(std::size_t start, int rf, Out& out) const;
  template <typename Out>
  void fill_nts(std::size_t start, std::uint64_t t, const int* rf_per_dc,
                std::size_t dcs, Out& out) const;
};

// ---------------------------------------------------------- placement cores
// Templated over the output container (ReplicaList on the request path,
// std::vector for the public compatibility overloads); both instantiations
// produce bit-identical orderings.

template <typename Out>
void TokenRing::fill_simple(std::size_t start, int rf, Out& out) const {
  HARMONY_CHECK(rf >= 1);
  HARMONY_CHECK_MSG(static_cast<std::size_t>(rf) <= topo_->node_count(),
                    "rf exceeds node count");
  std::size_t i = start;
  for (std::size_t walked = 0;
       walked < ring_.size() && out.size() < static_cast<std::size_t>(rf);
       ++walked, i = (i + 1) % ring_.size()) {
    const net::NodeId n = ring_[i].node;
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  }
  HARMONY_CHECK(out.size() == static_cast<std::size_t>(rf));
}

template <typename Out>
void TokenRing::fill_nts(std::size_t start, std::uint64_t t,
                         const int* rf_per_dc, std::size_t dcs,
                         Out& out) const {
  HARMONY_CHECK(dcs == topo_->dc_count());
  HARMONY_CHECK_MSG(dcs <= kMaxDcs, "dc_count exceeds kMaxDcs");

  // One cursor per DC that still owes replicas; NTS placement within a DC is
  // the clockwise walk over that DC's own vnodes, and the global interleaved
  // order is recovered by always advancing the cursor whose current vnode is
  // nearest clockwise from the key's token.
  struct Cursor {
    const std::vector<VNode>* ring;
    std::size_t idx;
    std::size_t walked;
    std::uint64_t rank;  ///< clockwise distance token -> vnode (mod 2^64)
    net::DcId dc;
    int wanted;
  };
  SmallVec<Cursor, kMaxDcs> cursors;
  for (std::size_t d = 0; d < dcs; ++d) {
    HARMONY_CHECK_MSG(
        static_cast<std::size_t>(rf_per_dc[d]) <=
            topo_->nodes_in_dc(static_cast<net::DcId>(d)).size(),
        "per-DC rf exceeds DC size");
    if (rf_per_dc[d] <= 0) continue;
    const std::vector<VNode>& ring = dc_ring_[d];
    std::size_t idx = next_in_dc_[d][start];
    if (idx == ring.size()) idx = 0;  // wrap past the last token
    cursors.push_back(Cursor{&ring, idx, 0, ring[idx].token - t,
                             static_cast<net::DcId>(d), rf_per_dc[d]});
  }

  while (!cursors.empty()) {
    // Pick the cursor nearest clockwise (ties broken by node id, matching the
    // global ring's (token, node) sort order).
    std::size_t best = 0;
    for (std::size_t c = 1; c < cursors.size(); ++c) {
      const Cursor& a = cursors[c];
      const Cursor& b = cursors[best];
      if (a.rank < b.rank ||
          (a.rank == b.rank &&
           (*a.ring)[a.idx].node < (*b.ring)[b.idx].node)) {
        best = c;
      }
    }
    Cursor& cur = cursors[best];
    const net::NodeId n = (*cur.ring)[cur.idx].node;
    if (std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(n);
      --cur.wanted;
    }
    ++cur.walked;
    if (cur.wanted == 0 || cur.walked == cur.ring->size()) {
      HARMONY_CHECK_MSG(cur.wanted == 0, "could not satisfy NTS placement");
      cursors[best] = cursors.back();
      cursors.pop_back();
      continue;
    }
    if (++cur.idx == cur.ring->size()) cur.idx = 0;
    cur.rank = (*cur.ring)[cur.idx].token - t;
  }
}

}  // namespace harmony::cluster
