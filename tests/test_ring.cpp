#include "cluster/token_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.h"
#include "reference/reference_ring.h"

namespace harmony::cluster {
namespace {

std::vector<net::NodeId> simple(const TokenRing& ring, Key key, int rf) {
  ReplicaList out;
  ring.replicas_simple(key, rf, out);
  return {out.begin(), out.end()};
}

std::vector<net::NodeId> nts(const TokenRing& ring, Key key,
                             const std::vector<int>& rf_per_dc) {
  DcCounts counts;
  for (const int rf : rf_per_dc) counts.push_back(rf);
  ReplicaList out;
  ring.replicas_nts(key, counts, out);
  return {out.begin(), out.end()};
}

TEST(TokenRing, ReplicasAreDistinctNodes) {
  const auto topo = net::Topology::balanced(10, 2);
  TokenRing ring(topo, 8, 42);
  for (Key k = 0; k < 500; ++k) {
    const auto replicas = simple(ring, k, 3);
    ASSERT_EQ(replicas.size(), 3u);
    const std::set<net::NodeId> uniq(replicas.begin(), replicas.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(TokenRing, DeterministicPlacement) {
  const auto topo = net::Topology::balanced(12, 2);
  TokenRing r1(topo, 8, 7), r2(topo, 8, 7);
  for (Key k = 0; k < 200; ++k) {
    EXPECT_EQ(simple(r1, k, 3), simple(r2, k, 3));
  }
}

TEST(TokenRing, DifferentSeedsChangePlacement) {
  const auto topo = net::Topology::balanced(12, 2);
  TokenRing r1(topo, 8, 7), r2(topo, 8, 8);
  int diff = 0;
  for (Key k = 0; k < 200; ++k) {
    if (simple(r1, k, 3) != simple(r2, k, 3)) ++diff;
  }
  EXPECT_GT(diff, 150);
}

// Ownership balance improves with vnode count.
class RingBalance : public ::testing::TestWithParam<int> {};

TEST_P(RingBalance, OwnershipWithinBounds) {
  const int vnodes = GetParam();
  const auto topo = net::Topology::balanced(16, 2);
  TokenRing ring(topo, vnodes, 123);
  const auto owned = ring.ownership();
  const double fair = 1.0 / 16.0;
  double max_share = 0;
  double total = 0;
  for (double o : owned) {
    max_share = std::max(max_share, o);
    total += o;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Loose bound that tightens with vnodes: 256 vnodes keeps the worst node
  // under ~2.2x fair share; 8 vnodes may reach ~4x.
  const double bound = vnodes >= 256 ? 2.2 : (vnodes >= 64 ? 3.0 : 4.5);
  EXPECT_LT(max_share, fair * bound) << "vnodes=" << vnodes;
}

INSTANTIATE_TEST_SUITE_P(VnodeCounts, RingBalance,
                         ::testing::Values(8, 64, 256));

TEST(TokenRing, KeysSpreadAcrossNodes) {
  const auto topo = net::Topology::balanced(10, 2);
  TokenRing ring(topo, 64, 5);
  std::vector<int> primary_count(10, 0);
  for (Key k = 0; k < 5000; ++k) {
    ++primary_count[simple(ring, k, 1)[0]];
  }
  for (int c : primary_count) {
    EXPECT_GT(c, 100);  // every node owns a meaningful share
  }
}

TEST(TokenRing, NtsPerDcCounts) {
  const auto topo = net::Topology::balanced(10, 2);
  TokenRing ring(topo, 16, 9);
  const std::vector<int> rf_per_dc = {3, 2};
  for (Key k = 0; k < 300; ++k) {
    const auto replicas = nts(ring, k, rf_per_dc);
    ASSERT_EQ(replicas.size(), 5u);
    int dc0 = 0, dc1 = 0;
    for (const auto n : replicas) {
      (topo.dc_of(n) == 0 ? dc0 : dc1)++;
    }
    EXPECT_EQ(dc0, 3);
    EXPECT_EQ(dc1, 2);
    const std::set<net::NodeId> uniq(replicas.begin(), replicas.end());
    EXPECT_EQ(uniq.size(), 5u);
  }
}

TEST(TokenRing, NtsSingleDcZeroAllowed) {
  const auto topo = net::Topology::balanced(8, 2);
  TokenRing ring(topo, 16, 9);
  const auto replicas = nts(ring, 7, {3, 0});
  ASSERT_EQ(replicas.size(), 3u);
  for (const auto n : replicas) EXPECT_EQ(topo.dc_of(n), 0);
}

TEST(TokenRing, RfBeyondNodesThrows) {
  const auto topo = net::Topology::balanced(4, 2);
  TokenRing ring(topo, 8, 1);
  EXPECT_THROW(simple(ring, 1, 5), harmony::CheckError);
  EXPECT_THROW(nts(ring, 1, {3, 0}), harmony::CheckError);
}

TEST(TokenRing, TokenForIsStable) {
  EXPECT_EQ(TokenRing::token_for(42), TokenRing::token_for(42));
  EXPECT_NE(TokenRing::token_for(42), TokenRing::token_for(43));
}

// Both walks against tests/reference/reference_ring.h, which rebuilds the
// tokens itself and walks the whole ring with no replica cap: NTS must be the
// classic "walk the global ring clockwise, admit nodes while their DC still
// owes replicas" placement, including the interleaved output order, and
// SimpleStrategy the first rf nodes of that walk.
TEST(TokenRing, NtsMatchesGlobalWalkReference) {
  for (const std::size_t nodes : {10u, 13u}) {
    const auto topo = net::Topology::balanced(nodes, 2);
    TokenRing ring(topo, 16, 77);
    const testing::ReferenceRing ref(topo, 16, 77);
    for (const auto& rf_per_dc :
         {std::vector<int>{3, 2}, {2, 2}, {3, 0}, {0, 1}, {1, 1}}) {
      for (Key k = 0; k < 400; ++k) {
        EXPECT_EQ(nts(ring, k, rf_per_dc), ref.nts(k, rf_per_dc))
            << "nodes=" << nodes << " key=" << k;
      }
    }
  }
}

TEST(TokenRing, SimpleMatchesGlobalWalkReference) {
  for (const std::size_t nodes : {1u, 5u, 13u}) {
    const auto topo = net::Topology::balanced(nodes, 1);
    TokenRing ring(topo, 8, 31);
    const testing::ReferenceRing ref(topo, 8, 31);
    const int max_rf = std::min<int>(static_cast<int>(nodes), kMaxReplicas);
    for (int rf = 1; rf <= max_rf; ++rf) {
      for (Key k = 0; k < 400; ++k) {
        EXPECT_EQ(simple(ring, k, rf), ref.simple(k, rf))
            << "nodes=" << nodes << " rf=" << rf << " key=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace harmony::cluster
