// Naive reference twin of cluster/token_ring.h's placement for the tests.
//
// Rebuilds the vnode tokens from the ring's own formula, sorts them by
// (token, node), finds a key's start with std::lower_bound and walks the
// whole ring clockwise into a std::vector with no replica cap. It shares no
// code with TokenRing beyond the key hash, so it checks both the token layout
// and the two placement walks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/token_ring.h"
#include "common/distributions.h"
#include "net/topology.h"

namespace harmony::testing {

class ReferenceRing {
 public:
  ReferenceRing(const net::Topology& topo, int vnodes_per_node,
                std::uint64_t seed)
      : topo_(&topo) {
    for (const auto& n : topo.nodes()) {
      for (int v = 0; v < vnodes_per_node; ++v) {
        const std::uint64_t token =
            mix64(seed ^ (static_cast<std::uint64_t>(n.id) *
                          0x9E3779B97F4A7C15ULL) ^
                  (static_cast<std::uint64_t>(v) + 0xD1B54A32D192ED03ULL));
        vnodes_.push_back({token, n.id});
      }
    }
    std::sort(vnodes_.begin(), vnodes_.end());
  }

  /// Every node, in the order it first appears clockwise from the key's
  /// token (the vnode at the token itself included).
  std::vector<net::NodeId> clockwise(cluster::Key key) const {
    const std::uint64_t t = cluster::TokenRing::token_for(key);
    auto it = std::lower_bound(
        vnodes_.begin(), vnodes_.end(), t,
        [](const VNode& v, std::uint64_t token) { return v.first < token; });
    std::vector<net::NodeId> out;
    for (std::size_t walked = 0; walked < vnodes_.size(); ++walked, ++it) {
      if (it == vnodes_.end()) it = vnodes_.begin();
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
      }
    }
    return out;
  }

  /// SimpleStrategy: the first rf nodes clockwise.
  std::vector<net::NodeId> simple(cluster::Key key, int rf) const {
    std::vector<net::NodeId> out = clockwise(key);
    out.resize(static_cast<std::size_t>(rf));
    return out;
  }

  /// NetworkTopologyStrategy: the clockwise nodes whose DC still owes
  /// replicas when they are reached.
  std::vector<net::NodeId> nts(cluster::Key key, std::vector<int> owed) const {
    std::vector<net::NodeId> out;
    for (const net::NodeId n : clockwise(key)) {
      if (owed[topo_->dc_of(n)] > 0) {
        out.push_back(n);
        --owed[topo_->dc_of(n)];
      }
    }
    return out;
  }

 private:
  using VNode = std::pair<std::uint64_t, net::NodeId>;  // (token, node)
  const net::Topology* topo_;
  std::vector<VNode> vnodes_;
};

}  // namespace harmony::testing
