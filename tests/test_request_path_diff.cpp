// Randomized differential harness for the allocation-free request path.
//
// The optimized hot lanes (SlotPool pending requests, ring-buffered
// StalenessOracle, inline LatencyHistogram) are replayed against naive
// reference twins (tests/reference/) over thousands of seeded schedules:
//
//   * oracle schedules — interleavings of commits (including write storms and
//     out-of-timestamp-order versions), reads beginning exactly at fold
//     boundaries, reads sharing a start time, reads ending with and without a
//     judgement (the timeout/unavailable paths);
//   * histogram schedules — mixed record/record_n/merge streams compared on
//     count, min, max, mean, and a whole percentile grid;
//   * slot-pool schedules — acquire/release/lookup churn, including lookups
//     through stale handles of recycled slots, against a unique-id map;
//   * placement schedules — seeded random rings (1–3 DCs, NTS or
//     SimpleStrategy, 1–256 vnodes, 1–84 nodes): the cluster's per-arc
//     placement table against a fresh ring walk for >= 100K keys each,
//     including keys hashed to both ends of the token space and onto vnode
//     tokens;
//   * store schedules — a preloaded ReplicaStore (implicit base layer)
//     against an eagerly preloaded std::map twin over random apply/read
//     streams with older, equal and newer versions, compared on every read
//     and all five counters after every step;
//   * full cluster runs — real traffic with kill/revive, hinted handoff,
//     request timeouts, and write storms, mirrored through the oracle's trace
//     sink into the reference oracle, with run fingerprints asserted
//     bit-identical across repeat runs of the same seed.
//
// Every judgement, percentile, and fingerprint must match exactly — a single
// divergence fails the suite with the offending seed, which reproduces the
// schedule deterministically.
//
// CI runs the default seeds plus extra ones derived from GITHUB_RUN_ID via
// HARMONY_DIFF_EXTRA_SEEDS (comma-separated uint64s, logged on startup).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/replica_store.h"
#include "cluster/staleness_oracle.h"
#include "common/distributions.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "reference/reference_histogram.h"
#include "reference/reference_oracle.h"
#include "reference/reference_pending_map.h"
#include "reference/reference_store.h"
#include "sim/simulation.h"

namespace harmony::testing {
namespace {

// Default schedule counts; the acceptance bar for this harness is >= 5000
// randomized schedules per full run (3200 + 1500 + 600 + 24 + 1000 + 40 =
// 6364).
constexpr std::uint64_t kOracleSchedules = 3200;
constexpr std::uint64_t kHistogramSchedules = 1500;
constexpr std::uint64_t kPoolSchedules = 600;
constexpr std::uint64_t kPlacementSchedules = 24;  // >= 100K keys each
constexpr std::uint64_t kStoreSchedules = 1000;
constexpr std::uint64_t kClusterRuns = 40;

constexpr double kPercentileGrid[] = {0,  0.1, 1,  10,   25,  50,
                                      75, 90,  95, 99.9, 100};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;  // FNV-1a prime
  return h;
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Extra base seeds injected by CI (HARMONY_DIFF_EXTRA_SEEDS=comma list).
const std::vector<std::uint64_t>& extra_seeds() {
  static const std::vector<std::uint64_t> seeds = [] {
    std::vector<std::uint64_t> out;
    const char* env = std::getenv("HARMONY_DIFF_EXTRA_SEEDS");
    if (env == nullptr || *env == '\0') return out;
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::string tok =
          s.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!tok.empty()) out.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    std::printf("[diff] extra seeds from HARMONY_DIFF_EXTRA_SEEDS:");
    for (const auto seed : out) std::printf(" %llu", (unsigned long long)seed);
    std::printf("\n");
    return out;
  }();
  return seeds;
}

// --------------------------------------------------------------- oracle diff

/// One randomized oracle schedule through both implementations; returns a
/// fingerprint over every judgement (0 fingerprints are valid but the caller
/// checks determinism by equality, not against zero).
std::uint64_t run_oracle_schedule(std::uint64_t seed) {
  Rng rng(seed);
  cluster::StalenessOracle prod;
  ReferenceOracle ref;
  const std::uint64_t keys = 1 + rng.uniform_u64(6);
  const int ops = 40 + static_cast<int>(rng.uniform_u64(260));
  SimTime now = 0;
  std::uint64_t seq = 0;
  std::uint64_t fp = kFnvOffset;

  struct InFlight {
    SimTime start;
    cluster::Key key;
  };
  std::vector<InFlight> reads;
  std::vector<std::vector<cluster::Version>> committed(keys);

  auto commit_one = [&](cluster::Key key) {
    // Timestamps sometimes lag the commit instant: two concurrent writes can
    // commit in the opposite of timestamp order.
    const SimTime ts = now - static_cast<SimTime>(rng.uniform_u64(4));
    const cluster::Version v{ts, ++seq};
    prod.record_commit(key, v, now);
    ref.record_commit(key, v, now);
    committed[key].push_back(v);
  };

  auto finish_read = [&](std::size_t pick, bool judge) {
    const InFlight r = reads[pick];
    reads.erase(reads.begin() + static_cast<std::ptrdiff_t>(pick));
    if (judge) {
      cluster::Version returned = cluster::kNoVersion;
      const double choice = rng.uniform();
      if (choice < 0.55 && !committed[r.key].empty()) {
        returned = committed[r.key][rng.uniform_u64(committed[r.key].size())];
      } else if (choice < 0.7) {
        // A replica seen "early": newer than anything committed yet.
        returned = cluster::Version{now + 1 + static_cast<SimTime>(
                                              rng.uniform_u64(5)),
                                    ++seq};
      }
      const auto pj = prod.judge(r.key, returned, r.start);
      const auto rj = ref.judge(r.key, returned, r.start);
      EXPECT_EQ(pj.stale, rj.stale) << "seed " << seed;
      EXPECT_EQ(pj.age, rj.age) << "seed " << seed;
      fp = mix(fp, pj.stale ? 1 : 0);
      fp = mix(fp, static_cast<std::uint64_t>(pj.age));
    }
    prod.end_read(r.start);
    ref.end_read(r.start);
  };

  for (int op = 0; op < ops; ++op) {
    // Advancing by 0 keeps commits and read starts landing on the same
    // instant (fold boundaries, shared starts) a routine occurrence.
    now += static_cast<SimTime>(rng.uniform_u64(3));
    const double roll = rng.uniform();
    if (roll < 0.35) {
      const int burst =
          rng.chance(0.15) ? 10 + static_cast<int>(rng.uniform_u64(30)) : 1;
      for (int b = 0; b < burst; ++b) {
        commit_one(rng.uniform_u64(keys));
        if (b + 1 < burst) now += static_cast<SimTime>(rng.uniform_u64(2));
      }
    } else if (roll < 0.65 || reads.empty()) {
      const int n = rng.chance(0.2) ? 2 : 1;  // shared start times
      for (int i = 0; i < n; ++i) {
        prod.begin_read(now);
        ref.begin_read(now);
        reads.push_back({now, rng.uniform_u64(keys)});
      }
    } else {
      // End a random in-flight read; 25% end without judging, as the
      // timeout/unavailable completion paths do.
      finish_read(rng.uniform_u64(reads.size()), !rng.chance(0.25));
    }
  }
  while (!reads.empty()) {
    now += static_cast<SimTime>(rng.uniform_u64(2));
    finish_read(rng.uniform_u64(reads.size()), !rng.chance(0.5));
  }

  EXPECT_EQ(prod.fresh_reads(), ref.fresh_reads()) << "seed " << seed;
  EXPECT_EQ(prod.stale_reads(), ref.stale_reads()) << "seed " << seed;
  EXPECT_EQ(prod.inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(ref.inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(prod.staleness_age().count(), ref.staleness_age().count())
      << "seed " << seed;
  for (const double p : kPercentileGrid) {
    EXPECT_EQ(prod.staleness_age().percentile(p),
              ref.staleness_age().percentile(p))
        << "seed " << seed << " p=" << p;
  }
  fp = mix(fp, prod.fresh_reads());
  fp = mix(fp, prod.stale_reads());
  return fp;
}

TEST(RequestPathDiff, OracleSchedulesMatchReference) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t seed = base + i;
      const std::uint64_t fp1 = run_oracle_schedule(seed);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "oracle diff diverged at seed " << seed;
      // Replaying the seed must reproduce the identical judgement stream.
      const std::uint64_t fp2 = run_oracle_schedule(seed);
      ASSERT_EQ(fp1, fp2) << "oracle schedule not deterministic, seed "
                          << seed;
      ++schedules;
    }
  };
  run_block(0x0D1FF5EEDULL, kOracleSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 300);
  std::printf("[diff] oracle schedules: %llu\n",
              (unsigned long long)schedules);
}

// ------------------------------------------------------------ histogram diff

void run_histogram_schedule(std::uint64_t seed) {
  Rng rng(seed);
  LatencyHistogram prod, prod_other;
  ReferenceHistogram ref, ref_other;
  const int ops = 20 + static_cast<int>(rng.uniform_u64(350));

  auto random_value = [&]() -> SimDuration {
    const double roll = rng.uniform();
    if (roll < 0.1) return 0;
    if (roll < 0.2) return static_cast<SimDuration>(rng.uniform_u64(32));
    if (roll < 0.3) return -static_cast<SimDuration>(rng.uniform_u64(1000));
    if (roll < 0.4) {  // huge values, up to the clamp-to-last-bucket range
      return static_cast<SimDuration>(rng.uniform_u64(1ULL << 45));
    }
    return static_cast<SimDuration>(rng.exponential(2000));
  };

  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.75) {
      const SimDuration v = random_value();
      prod.record(v);
      ref.record(v);
    } else if (roll < 0.9) {
      const SimDuration v = random_value();
      const std::uint64_t n = rng.uniform_u64(5);  // includes n == 0
      prod.record_n(v, n);
      ref.record_n(v, n);
    } else if (roll < 0.97) {
      const SimDuration v = random_value();
      prod_other.record(v);
      ref_other.record(v);
    } else {
      prod.merge(prod_other);
      ref.merge(ref_other);
    }
  }
  if (rng.chance(0.5)) {
    prod.merge(prod_other);
    ref.merge(ref_other);
  }

  EXPECT_EQ(prod.count(), ref.count()) << "seed " << seed;
  EXPECT_EQ(prod.min(), ref.min()) << "seed " << seed;
  EXPECT_EQ(prod.max(), ref.max()) << "seed " << seed;
  EXPECT_EQ(prod.mean(), ref.mean()) << "seed " << seed;
  for (const double p : kPercentileGrid) {
    EXPECT_EQ(prod.percentile(p), ref.percentile(p))
        << "seed " << seed << " p=" << p;
  }
}

TEST(RequestPathDiff, HistogramSchedulesMatchReference) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_histogram_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "histogram diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x41157ULL, kHistogramSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 150);
  std::printf("[diff] histogram schedules: %llu\n",
              (unsigned long long)schedules);
}

// ------------------------------------------------------------ slot-pool diff

void run_pool_schedule(std::uint64_t seed) {
  Rng rng(seed);
  struct Payload {
    std::uint64_t stamp = 0;
  };
  SlotPool<Payload> pool;
  ReferencePendingMap<Payload> ref;

  struct Tracked {
    SlotPool<Payload>::Handle pool_handle;
    ReferencePendingMap<Payload>::Handle ref_handle;
    bool released = false;
  };
  std::vector<Tracked> history;
  std::vector<std::size_t> live;  // indices into history
  std::uint64_t stamp = 0;

  const int ops = 30 + static_cast<int>(rng.uniform_u64(200));
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.4 || live.empty()) {
      const auto [h, p] = pool.acquire();
      const auto rh = ref.acquire();
      p->stamp = ++stamp;
      ref.get(rh)->stamp = stamp;
      live.push_back(history.size());
      history.push_back({h, rh, false});
    } else if (roll < 0.7) {
      const std::size_t pick = rng.uniform_u64(live.size());
      Tracked& t = history[live[pick]];
      pool.release(t.pool_handle);
      ref.release(t.ref_handle);
      t.released = true;
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Look up a random handle from the whole history: stale handles of
      // recycled slots must miss exactly like released unique ids do.
      const Tracked& t = history[rng.uniform_u64(history.size())];
      Payload* pp = pool.get(t.pool_handle);
      Payload* rp = ref.get(t.ref_handle);
      ASSERT_EQ(pp == nullptr, rp == nullptr)
          << "seed " << seed << ": slot pool hit/miss diverged from map";
      if (pp != nullptr) {
        EXPECT_EQ(pp->stamp, rp->stamp) << "seed " << seed;
      }
    }
    EXPECT_EQ(pool.live(), ref.live()) << "seed " << seed;
  }
}

TEST(RequestPathDiff, SlotPoolMatchesPendingMapSemantics) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_pool_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "slot-pool diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x5107F001ULL, kPoolSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 60);
  std::printf("[diff] slot-pool schedules: %llu\n",
              (unsigned long long)schedules);
}

// ---------------------------------------------------------- placement diff

/// The inverse of mix64 (TokenRing::token_for): lets a schedule pick keys by
/// the token they hash to. fmix64 is xor-shifts (self-inverse at shift 33)
/// and odd multiplies (inverted by Newton's iteration mod 2^64).
constexpr std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;  // correct to 3 bits; each step doubles that
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}
constexpr std::uint64_t key_for_token(std::uint64_t t) {
  t ^= t >> 33;
  t *= inverse_odd(0xC4CEB9FE1A85EC53ULL);
  t ^= t >> 33;
  t *= inverse_odd(0xFF51AFD7ED558CCDULL);
  t ^= t >> 33;
  return t;
}
static_assert(mix64(key_for_token(0x0123456789ABCDEFULL)) ==
              0x0123456789ABCDEFULL);

/// One random ring config: Cluster::replicas_for (the per-arc table behind
/// TokenRing::arc_of) against a fresh TokenRing walk for >= 100K keys —
/// random keys, small keys, keys hashing to both ends of the token space
/// (the wrap arc) and keys at, just before and just after vnode tokens found
/// by bisecting on where the fresh walk changes.
void run_placement_schedule(std::uint64_t seed) {
  Rng rng(seed);
  cluster::ClusterConfig cfg;
  cfg.node_count = 1 + rng.uniform_u64(rng.chance(0.5) ? 12 : 84);
  cfg.dc_count =
      1 + rng.uniform_u64(std::min<std::uint64_t>(3, cfg.node_count));
  cfg.rf = 1 + static_cast<int>(rng.uniform_u64(std::min<std::uint64_t>(
                   cfg.node_count, cluster::kMaxReplicas)));
  cfg.use_nts = rng.chance(0.5);
  const double v = rng.uniform();
  cfg.vnodes_per_node = v < 0.25   ? 1
                        : v < 0.75 ? 1 + static_cast<int>(rng.uniform_u64(16))
                                   : 1 + static_cast<int>(rng.uniform_u64(256));
  sim::Simulation sim(rng.next());
  const cluster::Cluster c(sim, cfg);
  const cluster::TokenRing& ring = c.ring();
  cluster::DcCounts split;
  for (const int rf : cfg.rf_per_dc()) split.push_back(rf);
  auto walk = [&](cluster::Key key) {
    cluster::ReplicaList out;
    if (cfg.use_nts) {
      ring.replicas_nts(key, split, out);
    } else {
      ring.replicas_simple(key, cfg.rf, out);
    }
    return out;
  };
  auto walk_at = [&](std::uint64_t t) { return walk(key_for_token(t)); };
  std::uint64_t checked = 0;
  auto check = [&](cluster::Key key) {
    ASSERT_EQ(c.replicas_for(key), walk(key))
        << "seed " << seed << ": key " << key << " (token "
        << cluster::TokenRing::token_for(key) << "), " << cfg.node_count
        << " nodes, " << cfg.dc_count << " DCs, rf " << cfg.rf << ", "
        << cfg.vnodes_per_node << " vnodes, "
        << (cfg.use_nts ? "NTS" : "SimpleStrategy");
    ++checked;
  };

  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (std::uint64_t t = 0; t < 64; ++t) {
    check(key_for_token(t));
    check(key_for_token(kMax - t));
  }
  for (int i = 0; i < 2000; ++i) {  // the outer 2^-16 of either end
    check(key_for_token(rng.next() >> 16));
    check(key_for_token(kMax - (rng.next() >> 16)));
  }
  // Vnode tokens: where the walk changes between two tokens a < b, bisect
  // to b == a + 1; the ring then has a vnode at token a.
  std::vector<std::uint64_t> probes = {0, kMax};
  for (int i = 0; i < 48; ++i) probes.push_back(rng.next());
  std::sort(probes.begin(), probes.end());
  for (std::size_t i = 0; i + 1 < probes.size(); ++i) {
    std::uint64_t a = probes[i], b = probes[i + 1];
    if (a == b || walk_at(a) == walk_at(b)) continue;
    const auto at_a = walk_at(a);
    while (b - a > 1) {
      const std::uint64_t m = a + (b - a) / 2;
      (walk_at(m) == at_a ? a : b) = m;
    }
    for (const std::uint64_t t : {a - 1, a, b, b + 1}) check(key_for_token(t));
  }
  for (cluster::Key k = 0; k < 16'000; ++k) check(k);
  while (checked < 100'000) check(rng.next());
}

TEST(RequestPathDiff, PlacementTableMatchesRingWalk) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_placement_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "placement diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x91ACE000ULL, kPlacementSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 4);
  std::printf("[diff] placement schedules: %llu\n",
              (unsigned long long)schedules);
}

// -------------------------------------------------------------- store diff

/// One random preload plus apply/read stream through ReplicaStore and the
/// eager std::map twin, over four kinds of key (base-owned, base-unowned
/// below the preload count, at or above it, and the all-ones sentinel) with
/// older, equal and newer versions. Every read and all five counters must
/// match after every step.
void run_store_schedule(std::uint64_t seed) {
  Rng rng(seed);
  cluster::ReplicaStore prod;
  ReferenceStore ref;
  const std::uint64_t count = rng.uniform_u64(rng.chance(0.2) ? 4 : 400);
  const std::uint64_t seq0 = rng.uniform_u64(1000);
  const auto size = static_cast<std::uint32_t>(1 + rng.uniform_u64(2048));
  const double density = rng.uniform();
  std::vector<bool> owned(count);
  std::vector<cluster::Key> owned_keys, unowned_keys;
  for (std::uint64_t k = 0; k < count; ++k) {
    owned[k] = rng.chance(density);
    (owned[k] ? owned_keys : unowned_keys).push_back(k);
  }
  prod.begin_base(count, seq0, size);
  for (const cluster::Key k : owned_keys) prod.own_base(k);
  ref.preload(owned, seq0, size);

  SCOPED_TRACE("seed " + std::to_string(seed));
  auto expect_same_counters = [&] {
    ASSERT_EQ(prod.key_count(), ref.key_count());
    ASSERT_EQ(prod.stored_bytes(), ref.stored_bytes());
    ASSERT_EQ(prod.reads(), ref.reads());
    ASSERT_EQ(prod.writes_applied(), ref.writes_applied());
    ASSERT_EQ(prod.writes_superseded(), ref.writes_superseded());
  };
  expect_same_counters();

  constexpr cluster::Key kSentinel = ~cluster::Key{0};
  const int ops = 50 + static_cast<int>(rng.uniform_u64(400));
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("step " + std::to_string(op));
    cluster::Key key;
    const double kind = rng.uniform();
    if (kind < 0.4 && !owned_keys.empty()) {
      key = owned_keys[rng.uniform_u64(owned_keys.size())];
    } else if (kind < 0.6 && !unowned_keys.empty()) {
      key = unowned_keys[rng.uniform_u64(unowned_keys.size())];
    } else if (kind < 0.9) {
      key = count + (rng.chance(0.8) ? rng.uniform_u64(32) : rng.next() >> 1);
    } else {
      key = kSentinel;
    }
    if (rng.chance(0.4)) {
      const auto got = prod.read(key);
      const auto want = ref.read(key);
      ASSERT_EQ(got.has_value(), want.has_value()) << "key " << key;
      if (got.has_value()) {
        ASSERT_EQ(got->version, want->version) << "key " << key;
        ASSERT_EQ(got->size_bytes, want->size_bytes) << "key " << key;
      }
    } else {
      // A version older than, equal to or newer than what the key holds.
      cluster::Version v{static_cast<SimTime>(rng.uniform_u64(3)),
                         rng.uniform_u64(2000)};
      if (const auto cur = ref.peek(key); cur.has_value()) {
        const double age = rng.uniform();
        v = cur->version;
        if (age < 0.3) {
          if (v.seq > 0 && rng.chance(0.5)) {
            v.seq -= 1 + rng.uniform_u64(v.seq);
          } else {
            --v.timestamp;
          }
        } else if (age < 0.6) {
          // equal
        } else if (rng.chance(0.5)) {
          v.seq += 1 + rng.uniform_u64(8);
        } else {
          v.timestamp += 1 + static_cast<SimTime>(rng.uniform_u64(3));
        }
      }
      const cluster::VersionedValue value{
          v, static_cast<std::uint32_t>(1 + rng.uniform_u64(4096))};
      ASSERT_EQ(prod.apply(key, value), ref.apply(key, value)) << "key " << key;
    }
    expect_same_counters();
  }
}

TEST(RequestPathDiff, StoreBaseLayerMatchesEagerPreload) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_store_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "store diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x57013E00ULL, kStoreSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 100);
  std::printf("[diff] store schedules: %llu\n", (unsigned long long)schedules);
}

// ------------------------------------------------------- cluster traffic diff

/// Mirrors every oracle call the cluster makes into the reference oracle and
/// cross-checks each judgement as it happens.
class DiffSink : public cluster::StalenessOracle::TraceSink {
 public:
  void on_commit(cluster::Key key, const cluster::Version& version,
                 SimTime t) override {
    ref.record_commit(key, version, t);
  }
  void on_begin_read(SimTime read_start) override {
    ref.begin_read(read_start);
  }
  void on_end_read(SimTime read_start) override { ref.end_read(read_start); }
  void on_judge(cluster::Key key, const cluster::Version& returned,
                SimTime read_start,
                const cluster::StalenessOracle::Judgement& judgement) override {
    const auto rj = ref.judge(key, returned, read_start);
    if (rj.stale != judgement.stale || rj.age != judgement.age) {
      ++mismatches;
    }
    fp = mix(fp, judgement.stale ? 1 : 0);
    fp = mix(fp, static_cast<std::uint64_t>(judgement.age));
  }

  ReferenceOracle ref;
  std::uint64_t fp = kFnvOffset;
  int mismatches = 0;
};

struct ClusterRunResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  SimTime end_time = 0;
};

ClusterRunResult run_cluster_schedule(std::uint64_t seed,
                                      bool resilience = false) {
  Rng setup(seed);
  sim::Simulation sim(seed);

  cluster::ClusterConfig cfg;
  cfg.dc_count = 1 + setup.uniform_u64(2);
  cfg.node_count = cfg.dc_count * (3 + setup.uniform_u64(3));
  const int max_rf = static_cast<int>(cfg.node_count / cfg.dc_count);
  cfg.rf = 2 + static_cast<int>(setup.uniform_u64(
                   static_cast<std::uint64_t>(std::min(3, max_rf - 1))));
  cfg.use_nts = setup.chance(0.7);
  if (setup.chance(0.3)) {
    // WAN slower than the deadline: a slice of requests must time out.
    cfg.latency.cross_dc.base = 60 * kMillisecond;
    cfg.request_timeout = 20 * kMillisecond;
  }
  if (setup.chance(0.3)) cfg.anti_entropy_period = 50 * kMillisecond;
  if (resilience) {
    // Knobs-on variant: randomized hedging / retry / admission settings, so
    // the resilience machinery replays through both dispatch lanes on the
    // same adversarial schedules as the knobs-off harness.
    cluster::ResilienceConfig& rc = cfg.resilience;
    rc.hedge_reads = setup.chance(0.8);
    rc.hedge_quantile = 0.5 + setup.uniform() * 0.45;
    rc.hedge_fallback_delay = msec(1 + setup.uniform_u64(5));
    rc.read_retries = static_cast<int>(setup.uniform_u64(3));
    rc.retry_backoff = msec(1 + setup.uniform_u64(4));
    if (setup.chance(0.5)) {
      rc.admission_rate = 500 + static_cast<double>(setup.uniform_u64(4000));
      rc.admission_burst = 20 + static_cast<double>(setup.uniform_u64(100));
      rc.admission_mode = setup.chance(0.5) ? cluster::AdmissionMode::kShed
                                            : cluster::AdmissionMode::kDelay;
    }
  }

  cluster::Cluster c(sim, cfg);
  if (resilience) {
    // Scripted faults on the typed event lane: degradation windows always,
    // a whole-DC blackout when a second DC exists to absorb the traffic.
    const auto victim =
        static_cast<net::NodeId>(setup.uniform_u64(cfg.node_count));
    const SimTime deg_at = static_cast<SimTime>(
        setup.uniform_u64(kSecond));
    c.schedule_fault({deg_at, cluster::FaultOp::kDegradeNode, victim, 0,
                      5.0 + static_cast<double>(setup.uniform_u64(30))});
    c.schedule_fault({deg_at + 300 * kMillisecond,
                      cluster::FaultOp::kRestoreNode, victim, 0, 1.0});
    if (cfg.dc_count > 1) {
      if (setup.chance(0.6)) {
        const SimTime out_at =
            static_cast<SimTime>(setup.uniform_u64(kSecond));
        c.schedule_fault(
            {out_at, cluster::FaultOp::kDcBlackout, 0, 1, 1.0});
        c.schedule_fault({out_at + 200 * kMillisecond,
                          cluster::FaultOp::kDcRestore, 0, 1, 1.0});
      }
      if (setup.chance(0.5)) {
        const SimTime wan_at =
            static_cast<SimTime>(setup.uniform_u64(kSecond));
        c.schedule_fault({wan_at, cluster::FaultOp::kDegradeWan, 0, 0,
                          2.0 + static_cast<double>(setup.uniform_u64(6))});
        c.schedule_fault({wan_at + 250 * kMillisecond,
                          cluster::FaultOp::kRestoreWan, 0, 0, 1.0});
      }
    }
  }
  DiffSink sink;
  c.oracle().set_trace_sink(&sink);

  const std::uint64_t key_count = 40 + setup.uniform_u64(160);
  c.preload_range(key_count / 2, 256);  // half the keys miss at first

  struct Ctx {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
  } ctx;

  Rng traffic = sim.fork_rng(0xD1FF);
  const int ops = 500 + static_cast<int>(setup.uniform_u64(800));
  const SimTime horizon = 2 * kSecond;
  for (int i = 0; i < ops; ++i) {
    const SimTime at = static_cast<SimTime>(traffic.uniform_u64(horizon));
    const cluster::Key key = traffic.uniform_u64(key_count);
    const auto dc = static_cast<net::DcId>(traffic.uniform_u64(cfg.dc_count));
    const int k = 1 + static_cast<int>(traffic.uniform_u64(
                          static_cast<std::uint64_t>(cfg.rf)));
    cluster::ReplicaRequirement req = cluster::resolve_count(k, cfg.rf);
    const double lvl = traffic.uniform();
    if (lvl < 0.15) {
      req = cluster::resolve(cluster::Level::kLocalQuorum, cfg.rf,
                             cfg.local_rf(dc));
    } else if (lvl < 0.25 && cfg.dc_count > 1 && cfg.use_nts) {
      req = cluster::resolve(cluster::Level::kEachQuorum, cfg.rf,
                             cfg.local_rf(dc));
    }
    const bool is_write = traffic.chance(0.35);
    const bool storm = traffic.chance(0.02);
    ++ctx.issued;
    const int rf = cfg.rf;
    sim.schedule_at(at, [&c, &ctx, key, dc, req, is_write, storm, rf] {
      if (is_write) {
        c.client_write(dc, key, 512, req,
                       [&ctx](const cluster::WriteResult&) { ++ctx.completed; });
        if (storm) {
          // Write storm: hammer the same key with CL=ONE writes so commits
          // pile up behind any in-flight read of it.
          for (int s = 0; s < 25; ++s) {
            ++ctx.issued;
            c.client_write(dc, key, 128, cluster::resolve_count(1, rf),
                           [&ctx](const cluster::WriteResult&) {
                             ++ctx.completed;
                           });
          }
        }
      } else {
        c.client_read(dc, key, req,
                      [&ctx](const cluster::ReadResult&) { ++ctx.completed; });
      }
    });
  }

  // Kill/revive churn: hints accumulate for the dead node and replay on
  // revival. Never drop below rf alive nodes (keeps coordinators available).
  const int churns = 1 + static_cast<int>(setup.uniform_u64(3));
  for (int i = 0; i < churns; ++i) {
    const auto victim =
        static_cast<net::NodeId>(setup.uniform_u64(cfg.node_count));
    const SimTime down = static_cast<SimTime>(setup.uniform_u64(horizon));
    const SimDuration outage =
        50 * kMillisecond + static_cast<SimDuration>(setup.uniform_u64(
                                static_cast<std::uint64_t>(horizon / 2)));
    const int rf = cfg.rf;
    sim.schedule_at(down, [&c, victim, rf] {
      if (c.alive_count() > static_cast<std::size_t>(rf)) {
        c.kill_node(victim);
      }
    });
    sim.schedule_at(down + outage, [&c, victim] {
      if (c.alive_count() < c.config().node_count) c.revive_node(victim);
    });
  }

  sim.run();

  EXPECT_EQ(ctx.completed, ctx.issued) << "seed " << seed;
  EXPECT_EQ(sink.mismatches, 0)
      << "seed " << seed << ": optimized and reference judgements diverged";
  // Every completion path — success, timeout, unavailable — must end its
  // oracle read window.
  EXPECT_EQ(c.oracle().inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(c.oracle().fresh_reads(), sink.ref.fresh_reads())
      << "seed " << seed;
  EXPECT_EQ(c.oracle().stale_reads(), sink.ref.stale_reads())
      << "seed " << seed;
  EXPECT_EQ(c.oracle().staleness_age().count(),
            sink.ref.staleness_age().count())
      << "seed " << seed;
  for (const double p : kPercentileGrid) {
    EXPECT_EQ(c.oracle().staleness_age().percentile(p),
              sink.ref.staleness_age().percentile(p))
        << "seed " << seed << " p=" << p;
  }

  ClusterRunResult out;
  out.fingerprint = mix(mix(sink.fp, c.oracle().fresh_reads()),
                        c.oracle().stale_reads());
  out.fingerprint = mix(out.fingerprint, c.timeouts());
  out.fingerprint = mix(out.fingerprint, c.unavailable());
  out.fingerprint = mix(out.fingerprint, c.retries());
  out.fingerprint = mix(out.fingerprint, c.hedges_fired());
  out.fingerprint = mix(out.fingerprint, c.hedge_wins());
  out.fingerprint = mix(out.fingerprint, c.sheds());
  out.events = sim.events_processed();
  out.end_time = sim.now();
  return out;
}

TEST(RequestPathDiff, ClusterTrafficMatchesReferenceAndIsDeterministic) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t seed = base + i;
      const ClusterRunResult a = run_cluster_schedule(seed);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "cluster diff diverged at seed " << seed;
      const ClusterRunResult b = run_cluster_schedule(seed);
      ASSERT_EQ(a.fingerprint, b.fingerprint)
          << "cluster run fingerprint not reproducible, seed " << seed;
      ASSERT_EQ(a.events, b.events) << "seed " << seed;
      ASSERT_EQ(a.end_time, b.end_time) << "seed " << seed;
      ++schedules;
    }
  };
  run_block(0xC10C0ULL, kClusterRuns);
  for (const auto seed : extra_seeds()) run_block(seed, 4);
  std::printf("[diff] cluster schedules: %llu\n",
              (unsigned long long)schedules);
}

TEST(RequestPathDiff, ResilienceKnobsOnMatchReferenceAndReproduce) {
  // The same schedules with hedged reads, coordinator retries, admission
  // control, and a scripted fault script (degradation windows, DC blackout,
  // WAN inflation) layered on top. Hedge timers racing responses, retry
  // backoffs racing late acks, and shed deliveries must all replay
  // bit-identically across repeated runs. The oracle diff inside
  // run_cluster_schedule keeps judging every read against the reference
  // model throughout.
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t seed = base + i;
      const ClusterRunResult first =
          run_cluster_schedule(seed, /*resilience=*/true);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "resilience cluster diff diverged at seed " << seed;
      const ClusterRunResult again =
          run_cluster_schedule(seed, /*resilience=*/true);
      ASSERT_EQ(first.fingerprint, again.fingerprint)
          << "knobs-on run not reproducible, seed " << seed;
      ASSERT_EQ(first.events, again.events) << "seed " << seed;
      ASSERT_EQ(first.end_time, again.end_time) << "seed " << seed;
      ++schedules;
    }
  };
  run_block(0x4E517ULL, kClusterRuns);
  for (const auto seed : extra_seeds()) run_block(seed, 4);
  std::printf("[diff] resilience knobs-on cluster schedules: %llu\n",
              (unsigned long long)schedules);
}

}  // namespace
}  // namespace harmony::testing
