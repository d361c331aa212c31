#include "cluster/token_ring.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
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
  const std::size_t n = ring_.size();

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

void TokenRing::replicas_simple(Key key, int rf, ReplicaList& out) const {
  walk_simple(first_at_or_after(token_for(key)), rf, out);
}

void TokenRing::replicas_nts(Key key, const DcCounts& rf_per_dc,
                             ReplicaList& out) const {
  walk_nts(first_at_or_after(token_for(key)), rf_per_dc, out);
}

void TokenRing::arc_replicas_simple(std::size_t arc, int rf,
                                    ReplicaList& out) const {
  HARMONY_CHECK(arc < ring_.size());
  walk_simple(arc, rf, out);
}

void TokenRing::arc_replicas_nts(std::size_t arc, const DcCounts& rf_per_dc,
                                 ReplicaList& out) const {
  HARMONY_CHECK(arc < ring_.size());
  walk_nts(arc, rf_per_dc, out);
}

void TokenRing::walk_simple(std::size_t start, int rf,
                            ReplicaList& out) const {
  HARMONY_CHECK(rf >= 1);
  HARMONY_CHECK_MSG(rf <= kMaxReplicas, "rf exceeds kMaxReplicas");
  HARMONY_CHECK_MSG(static_cast<std::size_t>(rf) <= topo_->node_count(),
                    "rf exceeds node count");
  out.clear();
  std::size_t i = start;
  for (std::size_t walked = 0;
       walked < ring_.size() && out.size() < static_cast<std::size_t>(rf);
       ++walked, i = (i + 1) % ring_.size()) {
    const net::NodeId n = ring_[i].node;
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  }
  HARMONY_CHECK(out.size() == static_cast<std::size_t>(rf));
}

void TokenRing::walk_nts(std::size_t start, const DcCounts& rf_per_dc,
                         ReplicaList& out) const {
  HARMONY_CHECK(rf_per_dc.size() == topo_->dc_count());
  DcCounts owed = rf_per_dc;
  int wanted = 0;
  for (std::size_t d = 0; d < owed.size(); ++d) {
    HARMONY_CHECK_MSG(
        static_cast<std::size_t>(owed[d]) <=
            topo_->nodes_in_dc(static_cast<net::DcId>(d)).size(),
        "per-DC rf exceeds DC size");
    wanted += owed[d];
  }
  out.clear();
  std::size_t i = start;
  for (std::size_t walked = 0;
       walked < ring_.size() && out.size() < static_cast<std::size_t>(wanted);
       ++walked, i = (i + 1) % ring_.size()) {
    const net::NodeId n = ring_[i].node;
    int& owes = owed[topo_->dc_of(n)];
    if (owes > 0 && std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(n);
      --owes;
    }
  }
  HARMONY_CHECK_MSG(out.size() == static_cast<std::size_t>(wanted),
                    "could not satisfy NTS placement");
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
