#include "cluster/token_ring.h"

#include <algorithm>
#include <cmath>

#include "common/distributions.h"

namespace harmony::cluster {

TokenRing::TokenRing(const net::Topology& topo, int vnodes_per_node,
                     std::uint64_t seed)
    : topo_(&topo) {
  HARMONY_CHECK(vnodes_per_node >= 1);
  HARMONY_CHECK(topo.node_count() >= 1);
  ring_.reserve(topo.node_count() * static_cast<std::size_t>(vnodes_per_node));
  for (const auto& n : topo.nodes()) {
    for (int v = 0; v < vnodes_per_node; ++v) {
      // Deterministic, well-scattered tokens per (seed, node, vnode).
      const std::uint64_t token =
          mix64(seed ^ (static_cast<std::uint64_t>(n.id) * 0x9E3779B97F4A7C15ULL) ^
                (static_cast<std::uint64_t>(v) + 0xD1B54A32D192ED03ULL));
      ring_.push_back({token, n.id});
    }
  }
  // (token, node) order: the node tie-break makes the walk order fully
  // deterministic even in the (vanishingly unlikely) event of a token collision.
  std::sort(ring_.begin(), ring_.end(), [](const VNode& a, const VNode& b) {
    if (a.token != b.token) return a.token < b.token;
    return a.node < b.node;
  });
  // Per-DC index: each DC's vnodes in the same clockwise order, so NTS can
  // walk one DC without stepping over the others' vnodes.
  dc_ring_.resize(topo.dc_count());
  for (std::size_t d = 0; d < dc_ring_.size(); ++d) {
    dc_ring_[d].reserve(topo.nodes_in_dc(static_cast<net::DcId>(d)).size() *
                        static_cast<std::size_t>(vnodes_per_node));
  }
  for (const VNode& v : ring_) dc_ring_[topo.dc_of(v.node)].push_back(v);

  // Skip table for NTS cursor seeding (see header). Built back-to-front so
  // each position inherits the successor's "next" until a DC vnode overrides.
  const std::size_t n = ring_.size();
  std::vector<std::uint32_t> local_idx(n);
  std::vector<std::uint32_t> counter(topo.dc_count(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    local_idx[i] = counter[topo.dc_of(ring_[i].node)]++;
  }
  next_in_dc_.resize(topo.dc_count());
  for (std::size_t d = 0; d < next_in_dc_.size(); ++d) {
    next_in_dc_[d].assign(n + 1, static_cast<std::uint32_t>(dc_ring_[d].size()));
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t d = 0; d < next_in_dc_.size(); ++d) {
      next_in_dc_[d][i] = next_in_dc_[d][i + 1];
    }
    next_in_dc_[topo.dc_of(ring_[i].node)][i] = local_idx[i];
  }

  // arc_of's buckets: the smallest power of two >= 4 vnodes (at least 4,
  // so the shift stays below 64), filled by one merge over the sorted ring.
  unsigned bits = 2;
  while ((std::size_t{1} << bits) < 4 * n) ++bits;
  arc_shift_ = 64 - bits;
  arc_bucket_.resize(std::size_t{1} << bits);
  std::size_t i = 0;
  for (std::size_t b = 0; b < arc_bucket_.size(); ++b) {
    const std::uint64_t lo = static_cast<std::uint64_t>(b) << arc_shift_;
    while (i < n && ring_[i].token < lo) ++i;
    const bool last = b + 1 == arc_bucket_.size();
    const std::uint64_t next_lo = static_cast<std::uint64_t>(b + 1)
                                  << arc_shift_;
    arc_bucket_[b] = ArcBucket{
        i < n ? ring_[i].token : ~std::uint64_t{0},
        static_cast<std::uint32_t>(i),
        i + 1 < n && (last || ring_[i + 1].token < next_lo) ? 1u : 0u};
  }
}

std::size_t TokenRing::first_at_or_after(std::uint64_t token) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), token,
      [](const VNode& v, std::uint64_t t) { return v.token < t; });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

std::vector<net::NodeId> TokenRing::replicas_simple(Key key, int rf) const {
  std::vector<net::NodeId> out;
  out.reserve(static_cast<std::size_t>(rf));
  fill_simple(first_at_or_after(token_for(key)), rf, out);
  return out;
}

void TokenRing::replicas_simple(Key key, int rf, ReplicaList& out) const {
  HARMONY_CHECK_MSG(rf <= kMaxReplicas, "rf exceeds kMaxReplicas");
  out.clear();
  fill_simple(first_at_or_after(token_for(key)), rf, out);
}

void TokenRing::arc_replicas_simple(std::size_t arc, int rf,
                                    ReplicaList& out) const {
  HARMONY_CHECK(arc < ring_.size());
  HARMONY_CHECK_MSG(rf <= kMaxReplicas, "rf exceeds kMaxReplicas");
  out.clear();
  fill_simple(arc, rf, out);
}

std::vector<net::NodeId> TokenRing::replicas_nts(
    Key key, const std::vector<int>& rf_per_dc) const {
  HARMONY_CHECK(rf_per_dc.size() == topo_->dc_count());
  std::vector<net::NodeId> out;
  int total = 0;
  for (const int w : rf_per_dc) total += w;
  out.reserve(static_cast<std::size_t>(total));
  const std::uint64_t t = token_for(key);
  fill_nts(first_at_or_after(t), t, rf_per_dc.data(), rf_per_dc.size(), out);
  return out;
}

void TokenRing::replicas_nts(Key key, const DcCounts& rf_per_dc,
                             ReplicaList& out) const {
  out.clear();
  const std::uint64_t t = token_for(key);
  fill_nts(first_at_or_after(t), t, rf_per_dc.begin(), rf_per_dc.size(), out);
}

void TokenRing::arc_replicas_nts(std::size_t arc, const DcCounts& rf_per_dc,
                                 ReplicaList& out) const {
  HARMONY_CHECK(arc < ring_.size());
  out.clear();
  // The arc's own vnode token lies in the arc (it is the lower_bound of
  // itself whenever the arc is reachable), so it ranks like any key there.
  fill_nts(arc, ring_[arc].token, rf_per_dc.begin(), rf_per_dc.size(), out);
}

std::vector<double> TokenRing::ownership() const {
  std::vector<double> owned(topo_->node_count(), 0.0);
  const double full = std::pow(2.0, 64.0);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    // vnode i owns (previous token, token]; the first wraps around.
    const std::uint64_t hi = ring_[i].token;
    const std::uint64_t lo = ring_[i == 0 ? ring_.size() - 1 : i - 1].token;
    const double span = (i == 0)
                            ? static_cast<double>(hi) +
                                  (full - static_cast<double>(lo))
                            : static_cast<double>(hi - lo);
    owned[ring_[i].node] += span / full;
  }
  return owned;
}

}  // namespace harmony::cluster
