#include "cluster/token_ring.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"

namespace harmony::cluster {
namespace {

TEST(TokenRing, ReplicasAreDistinctNodes) {
  const auto topo = net::Topology::balanced(10, 2);
  TokenRing ring(topo, 8, 42);
  for (Key k = 0; k < 500; ++k) {
    const auto replicas = ring.replicas_simple(k, 3);
    ASSERT_EQ(replicas.size(), 3u);
    const std::set<net::NodeId> uniq(replicas.begin(), replicas.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(TokenRing, DeterministicPlacement) {
  const auto topo = net::Topology::balanced(12, 2);
  TokenRing r1(topo, 8, 7), r2(topo, 8, 7);
  for (Key k = 0; k < 200; ++k) {
    EXPECT_EQ(r1.replicas_simple(k, 3), r2.replicas_simple(k, 3));
  }
}

TEST(TokenRing, DifferentSeedsChangePlacement) {
  const auto topo = net::Topology::balanced(12, 2);
  TokenRing r1(topo, 8, 7), r2(topo, 8, 8);
  int diff = 0;
  for (Key k = 0; k < 200; ++k) {
    if (r1.replicas_simple(k, 3) != r2.replicas_simple(k, 3)) ++diff;
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
    ++primary_count[ring.replicas_simple(k, 1)[0]];
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
    const auto replicas = ring.replicas_nts(k, rf_per_dc);
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
  const auto replicas = ring.replicas_nts(7, {3, 0});
  ASSERT_EQ(replicas.size(), 3u);
  for (const auto n : replicas) EXPECT_EQ(topo.dc_of(n), 0);
}

TEST(TokenRing, RfBeyondNodesThrows) {
  const auto topo = net::Topology::balanced(4, 2);
  TokenRing ring(topo, 8, 1);
  EXPECT_THROW(ring.replicas_simple(1, 5), harmony::CheckError);
  EXPECT_THROW(ring.replicas_nts(1, {3, 0}), harmony::CheckError);
}

TEST(TokenRing, TokenForIsStable) {
  EXPECT_EQ(TokenRing::token_for(42), TokenRing::token_for(42));
  EXPECT_NE(TokenRing::token_for(42), TokenRing::token_for(43));
}

// The per-DC cursor merge inside replicas_nts must reproduce the classic
// "walk the global ring clockwise, admit nodes while their DC still owes
// replicas" placement, including the interleaved output order. The reference
// is derived from replicas_simple with rf = node_count, which yields every
// node in clockwise first-appearance order.
std::vector<net::NodeId> nts_reference(const TokenRing& ring,
                                       const net::Topology& topo, Key key,
                                       std::vector<int> wanted) {
  std::vector<net::NodeId> out;
  for (const net::NodeId n :
       ring.replicas_simple(key, static_cast<int>(topo.node_count()))) {
    if (wanted[topo.dc_of(n)] > 0) {
      out.push_back(n);
      --wanted[topo.dc_of(n)];
    }
  }
  return out;
}

TEST(TokenRing, NtsMatchesGlobalWalkReference) {
  for (const std::size_t nodes : {10u, 13u}) {
    const auto topo = net::Topology::balanced(nodes, 2);
    TokenRing ring(topo, 16, 77);
    for (const auto& rf_per_dc :
         {std::vector<int>{3, 2}, {2, 2}, {3, 0}, {0, 1}, {1, 1}}) {
      for (Key k = 0; k < 400; ++k) {
        EXPECT_EQ(ring.replicas_nts(k, rf_per_dc),
                  nts_reference(ring, topo, k, rf_per_dc))
            << "nodes=" << nodes << " key=" << k;
      }
    }
  }
}

TEST(TokenRing, InlineOverloadsMatchVectorOverloads) {
  const auto topo = net::Topology::balanced(12, 2);
  TokenRing ring(topo, 32, 5);
  const DcCounts rf_per_dc{2, 1};
  const std::vector<int> rf_per_dc_vec{2, 1};
  for (Key k = 0; k < 300; ++k) {
    ReplicaList simple;
    ring.replicas_simple(k, 3, simple);
    const auto simple_vec = ring.replicas_simple(k, 3);
    ASSERT_EQ(simple.size(), simple_vec.size());
    for (std::size_t i = 0; i < simple.size(); ++i) {
      EXPECT_EQ(simple[i], simple_vec[i]);
    }

    ReplicaList nts;
    ring.replicas_nts(k, rf_per_dc, nts);
    const auto nts_vec = ring.replicas_nts(k, rf_per_dc_vec);
    ASSERT_EQ(nts.size(), nts_vec.size());
    for (std::size_t i = 0; i < nts.size(); ++i) {
      EXPECT_EQ(nts[i], nts_vec[i]);
    }
  }
}

}  // namespace
}  // namespace harmony::cluster
