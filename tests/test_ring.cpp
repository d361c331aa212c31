#include "cluster/token_ring.h"

#include <gtest/gtest.h>

#include <set>

#include "cluster/shard_map.h"
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

// ------------------------------------------------- key-range shard ownership

/// First token of range `r` out of `ranges`: the smallest t with
/// floor(t * ranges / 2^64) == r, i.e. ceil(r * 2^64 / ranges).
std::uint64_t range_start(std::uint32_t r, std::uint32_t ranges) {
  if (r == 0) return 0;
  const unsigned __int128 num =
      (static_cast<unsigned __int128>(r) << 64) + ranges - 1;
  return static_cast<std::uint64_t>(num / ranges);
}

TEST(TokenRing, RangeOfOwnsBoundaryTokens) {
  for (const std::uint32_t ranges : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
    // The extreme tokens: range 0 owns token 0, the last range owns 2^64-1 —
    // the token space never wraps a range across the 2^64 boundary, so key
    // ownership has no wrap-around case to get wrong.
    EXPECT_EQ(TokenRing::range_of(0, ranges), 0u) << "ranges " << ranges;
    EXPECT_EQ(TokenRing::range_of(~0ULL, ranges), ranges - 1)
        << "ranges " << ranges;
    // Every interior boundary: the first token of range r lands in r, the
    // token just below it in r-1 — ranges partition the space with no gap
    // and no overlap.
    for (std::uint32_t r = 1; r < ranges; ++r) {
      const std::uint64_t t = range_start(r, ranges);
      EXPECT_EQ(TokenRing::range_of(t, ranges), r)
          << "ranges " << ranges << " r " << r;
      EXPECT_EQ(TokenRing::range_of(t - 1, ranges), r - 1)
          << "ranges " << ranges << " r " << r;
    }
  }
}

TEST(ShardMap, OneShardPutsEveryDcOnShardZero) {
  const auto topo = net::Topology::balanced(12, 3);
  ShardMap map;
  map.build(topo, 1);
  EXPECT_EQ(map.shards_per_dc(), 1u);
  for (net::NodeId n = 0; n < 12; ++n) EXPECT_EQ(map.node_shard(n), 0u);
  for (net::DcId d = 0; d < 3; ++d) {
    EXPECT_EQ(map.dc_range(d).first, 0u);
    EXPECT_EQ(map.dc_range(d).count, 1u);
    // The coordinator lane of (d, 0) is the whole DC in nodes_in_dc order,
    // and each DC keeps its own admission bucket.
    EXPECT_EQ(map.coordinators(d, 0), topo.nodes_in_dc(d));
    EXPECT_EQ(map.admission_bucket(d, 0), d);
    for (Key k = 0; k < 500; ++k) EXPECT_EQ(map.home_shard(d, k), 0u);
  }
  EXPECT_EQ(map.admission_buckets(), 3u);
}

TEST(ShardMap, KeyRangeOwnershipPartitionsTheDc) {
  const auto topo = net::Topology::balanced(8, 1);
  ShardMap map;
  map.build(topo, 4);
  EXPECT_EQ(map.shards_per_dc(), 4u);
  // Nodes deal round-robin over the DC's shard range; every shard gets a
  // coordinator candidate.
  std::size_t owned = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(map.admission_bucket(0, s), s);
    EXPECT_FALSE(map.coordinators(0, s).empty());
    owned += map.coordinators(0, s).size();
  }
  EXPECT_EQ(owned, 8u);
  for (net::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(map.node_shard(n), n % 4);
  }
  // home_shard is exactly the token-range cut: one owner per key, and every
  // shard ends up owning a slice of a uniform key stream.
  std::uint64_t per_shard[4] = {0, 0, 0, 0};
  for (Key k = 0; k < 4000; ++k) {
    const std::uint32_t s = map.home_shard(0, k);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, TokenRing::range_of(TokenRing::token_for(k), 4));
    ++per_shard[s];
  }
  for (const std::uint64_t n : per_shard) EXPECT_GT(n, 500u);
}

TEST(ShardMap, UniformSplitKeepsDcRangesContiguous) {
  const auto topo = net::Topology::balanced(12, 2);
  ShardMap map;
  map.build(topo, 6);
  EXPECT_EQ(map.shards_per_dc(), 3u);
  EXPECT_EQ(map.admission_buckets(), 6u);
  for (net::DcId d = 0; d < 2; ++d) {
    EXPECT_EQ(map.dc_range(d).first, 3u * d);
    EXPECT_EQ(map.dc_range(d).count, 3u);
    // Each DC's nodes deal round-robin over its own range, in nodes_in_dc
    // order, and a shard's lane is exactly the nodes it owns.
    const auto& nodes = topo.nodes_in_dc(d);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(map.node_shard(nodes[i]), 3u * d + i % 3);
    }
    for (std::uint32_t s = 3u * d; s < 3u * d + 3; ++s) {
      EXPECT_EQ(map.admission_bucket(d, s), s);
      ASSERT_EQ(map.coordinators(d, s).size(), 2u);
      for (const net::NodeId n : map.coordinators(d, s)) {
        EXPECT_EQ(map.node_shard(n), s);
      }
    }
  }
  for (Key k = 0; k < 1000; ++k) {
    // The range index is the same cut in every DC; only the base shifts.
    const std::uint32_t r = TokenRing::range_of(TokenRing::token_for(k), 3);
    EXPECT_EQ(map.home_shard(0, k), r);
    EXPECT_EQ(map.home_shard(1, k), 3u + r);
  }
  // A shard of another DC has no lane for this DC.
  EXPECT_THROW(map.coordinators(0, 3), CheckError);
}

TEST(ShardMap, RejectsShardCountsThatDoNotSplitEveryDcEvenly) {
  const auto topo = net::Topology::balanced(12, 3);
  ShardMap map;
  EXPECT_THROW(map.build(topo, 2), CheckError);  // fewer shards than DCs
  EXPECT_THROW(map.build(topo, 4), CheckError);  // not a multiple of 3
  EXPECT_THROW(map.build(topo, 7), CheckError);
  map.build(topo, 3);
  map.build(topo, 12);  // S == 4 == nodes per DC: still one node per shard
}

TEST(ShardMap, RejectsMoreShardsPerDcThanNodes) {
  const auto topo = net::Topology::balanced(6, 2);
  ShardMap map;
  map.build(topo, 6);
  EXPECT_THROW(map.build(topo, 8), CheckError);  // S == 4 > 3 nodes per DC
}

TEST(ShardMap, LookaheadIsTheLowestFloorOfEveryCrossingHopClass) {
  net::TieredLatencyModel::Params lat;
  lat.cross_dc.floor = 1000;
  lat.same_dc.floor = 300;
  lat.same_rack.floor = 200;
  lat.loopback.floor = 1;  // never crosses shards
  // One shard: nothing crosses.
  EXPECT_EQ(ShardMap::lookahead(lat, 3, 1), sim::ShardSet::kNoLookahead);
  // One shard per DC: only cross-DC hops cross.
  EXPECT_EQ(ShardMap::lookahead(lat, 3, 3), 1000);
  // Split DCs: intra-DC hops cross too.
  EXPECT_EQ(ShardMap::lookahead(lat, 3, 6), 200);
  // One split DC has no cross-DC hop at all.
  lat.same_rack.floor = 2000;
  lat.same_dc.floor = 3000;
  EXPECT_EQ(ShardMap::lookahead(lat, 1, 4), 2000);
}

}  // namespace
}  // namespace harmony::cluster
