#include "workload/runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/harmony.h"
#include "core/static_policy.h"

namespace harmony::workload {
namespace {

RunConfig small_run(std::uint64_t ops = 4000) {
  RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = WorkloadSpec::ycsb_a();
  cfg.workload.op_count = ops;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 200 * kMillisecond;
  cfg.seed = 11;
  return cfg;
}

TEST(Runner, CompletesAllOperations) {
  const auto r = run_experiment(small_run());
  EXPECT_GT(r.reads, 1000u);
  EXPECT_GT(r.writes, 1000u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.duration_s, 0.0);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.policy_name, "static-ONE");
}

TEST(Runner, DeterministicAcrossRuns) {
  const auto a = run_experiment(small_run());
  const auto b = run_experiment(small_run());
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.bill.total(), b.bill.total());
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(Runner, SeedChangesOutcome) {
  auto cfg = small_run();
  cfg.seed = 12;
  const auto a = run_experiment(small_run());
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.sim_events, b.sim_events);
}

TEST(Runner, LatencyHistogramsPopulated) {
  const auto r = run_experiment(small_run());
  EXPECT_GT(r.read_latency.count(), 0u);
  EXPECT_GT(r.write_latency.count(), 0u);
  EXPECT_GT(r.read_latency.mean(), 0.0);
  EXPECT_LE(r.read_latency.percentile(50), r.read_latency.percentile(99));
}

TEST(Runner, LevelUsageTracksPolicy) {
  auto cfg = small_run();
  cfg.policy = core::static_counts(2, 1);
  const auto r = run_experiment(cfg);
  ASSERT_EQ(r.read_level_usage.size(), 1u);
  EXPECT_EQ(r.read_level_usage.begin()->first, 2);
  EXPECT_DOUBLE_EQ(r.avg_read_replicas, 2.0);
}

TEST(Runner, BillDecompositionSumsToTotal) {
  const auto r = run_experiment(small_run());
  EXPECT_NEAR(r.bill.total(),
              r.bill.instances + r.bill.storage + r.bill.network + r.bill.energy,
              1e-12);
  EXPECT_GT(r.bill.instances, 0.0);
  EXPECT_GT(r.usage.node_hours, 0.0);
  EXPECT_GT(r.usage.io_requests, 0u);
  EXPECT_GT(r.usage.cross_dc_gb, 0.0);
}

TEST(Runner, StaleFractionConsistentWithCounts) {
  const auto r = run_experiment(small_run());
  const auto judged = r.stale_reads + r.fresh_reads;
  ASSERT_GT(judged, 0u);
  EXPECT_NEAR(r.stale_fraction,
              static_cast<double>(r.stale_reads) / static_cast<double>(judged),
              1e-12);
}

TEST(Runner, ThroughputMatchesOpsOverTime) {
  const auto r = run_experiment(small_run());
  // ops counted post-warmup; throughput = measured ops / measured span.
  EXPECT_NEAR(r.throughput * r.duration_s, static_cast<double>(r.ops),
              static_cast<double>(r.ops) * 0.05);
}

TEST(Runner, TargetRateThrottlesClients) {
  auto fast = small_run(3000);
  const auto unthrottled = run_experiment(fast);
  auto slow = small_run(3000);
  slow.workload.target_rate_per_client = 20.0;  // 16 clients * 20 = 320 ops/s
  const auto throttled = run_experiment(slow);
  EXPECT_LT(throttled.throughput, unthrottled.throughput);
  EXPECT_NEAR(throttled.throughput, 320.0, 80.0);
}

TEST(Runner, RmwWorkloadRuns) {
  auto cfg = small_run(3000);
  cfg.workload = WorkloadSpec::ycsb_f();
  cfg.workload.op_count = 3000;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.writes, 0u);  // the write halves of RMW ops
}

TEST(Runner, InsertWorkloadGrowsKeySpace) {
  auto cfg = small_run(3000);
  cfg.workload = WorkloadSpec::ycsb_d();
  cfg.workload.op_count = 3000;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.writes, 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(Runner, RequiresPolicy) {
  RunConfig cfg;
  EXPECT_THROW(run_experiment(cfg), CheckError);
}

// ---- sharded execution (RunConfig::num_shard_threads) ----------------------

RunConfig sharded_run(unsigned threads, std::uint64_t ops = 6000) {
  RunConfig cfg = small_run(ops);
  cfg.cluster.node_count = 9;
  cfg.cluster.dc_count = 3;
  // The cross-DC propagation floor doubles as the conservative lookahead.
  cfg.cluster.latency.cross_dc.floor = kMillisecond;
  cfg.workload.clients_per_dc = 6;
  cfg.num_shard_threads = threads;
  cfg.seed = 29;
  return cfg;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_EQ(a.fresh_reads, b.fresh_reads);
  EXPECT_EQ(a.net.total_bytes(), b.net.total_bytes());
  EXPECT_EQ(a.read_latency.count(), b.read_latency.count());
  EXPECT_EQ(a.read_latency.percentile(99), b.read_latency.percentile(99));
  EXPECT_EQ(a.write_latency.percentile(99), b.write_latency.percentile(99));
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.bill.total(), b.bill.total());
}

TEST(Runner, ShardedRunIsThreadCountInvariant) {
  const auto serial = run_experiment(sharded_run(1));
  const auto two = run_experiment(sharded_run(2));
  const auto four = run_experiment(sharded_run(4));
  EXPECT_GT(serial.reads, 1000u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, two);
  expect_same_run(serial, four);
  // The merged-serial reference never touches a mailbox.
  EXPECT_EQ(serial.mailbox_spills, 0u);
}

TEST(Runner, ShardedInsertWorkloadIsThreadCountInvariant) {
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads, 4000);
    cfg.workload = WorkloadSpec::ycsb_d();  // insert-heavy: per-DC key lanes
    cfg.workload.op_count = 4000;
    cfg.workload.record_count = 500;
    cfg.workload.clients_per_dc = 6;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  EXPECT_GT(serial.writes, 0u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, four);
}

TEST(Runner, ShardedSingleDcMatchesUnshardedExactly) {
  auto make = [](unsigned threads) {
    auto cfg = small_run(3000);
    cfg.cluster.dc_count = 1;
    cfg.cluster.node_count = 6;
    cfg.cluster.latency.cross_dc.floor = kMillisecond;
    cfg.num_shard_threads = threads;
    return cfg;
  };
  // One DC = one shard: the full serial machinery (monitor, policy ticks,
  // per-read staleness) stays on, and the run is byte-identical to the
  // unsharded default.
  const auto plain = run_experiment(make(0));
  const auto sharded = run_experiment(make(4));
  expect_same_run(plain, sharded);
  EXPECT_DOUBLE_EQ(plain.stale_fraction, sharded.stale_fraction);
}

TEST(Runner, ShardedRunRejectsCrossShardSingletons) {
  auto reroute = sharded_run(2, 1000);
  reroute.workload.reroute_on_dc_outage = true;
  EXPECT_THROW(run_experiment(reroute), CheckError);

  auto no_floor = sharded_run(2, 1000);
  no_floor.cluster.latency.cross_dc.floor = 0;
  EXPECT_THROW(run_experiment(no_floor), CheckError);
}

TEST(Runner, ShardedLegacyFaultsMatchMergedSerial) {
  // The legacy kill/revive list rides the typed fault lane, so its instants
  // are fences and a sharded run reproduces the merged-serial reference.
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads, 5000);
    cfg.faults.push_back({300 * kMillisecond, 0, true});
    cfg.faults.push_back({350 * kMillisecond, 4, true});
    cfg.faults.push_back({800 * kMillisecond, 0, false});
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto two = run_experiment(make(2));
  expect_same_run(serial, two);
  // The faults really fired: the fault-free run schedules differently.
  EXPECT_NE(serial.sim_events, run_experiment(sharded_run(1, 5000)).sim_events);
}

TEST(Runner, ShardedPacedClosedLoopIsThreadCountInvariant) {
  // Paced clients report their intended arrival to the monitor, which feeds
  // the fenced Harmony ticks: decisions must not depend on thread count.
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads);
    cfg.workload.target_rate_per_client = 400.0;
    cfg.policy = core::harmony_policy(0.2);
    cfg.policy_tick = 100 * kMillisecond;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto two = run_experiment(make(2));
  expect_same_run(serial, two);
  EXPECT_EQ(serial.read_level_usage, two.read_level_usage);
  EXPECT_EQ(serial.policy_switches, two.policy_switches);
  EXPECT_GT(serial.final_state.read_rate, 0.0);
  EXPECT_DOUBLE_EQ(serial.final_state.read_rate, two.final_state.read_rate);
  EXPECT_DOUBLE_EQ(serial.final_state.write_rate, two.final_state.write_rate);
}

/// The client-side read hooks the cluster forwards to its observer.
class ReadHookLog final : public cluster::ClusterObserver {
 public:
  void record_read_issued(SimTime now, cluster::Key) override {
    issued.push_back(now);
  }
  void record_read_complete(SimTime now, SimDuration latency) override {
    started.push_back(now - latency);
    completed.push_back(now);
  }
  std::vector<SimTime> issued, started, completed;
};

/// One overdriven rate-paced client in DC 0 of a two-DC cluster, unsharded
/// (threads == 0) or split into per-DC event shards.
class PacedClientProbe final : public ClientEnv {
 public:
  explicit PacedClientProbe(unsigned threads)
      : cluster_(sharded(sim_, threads), cluster_config()),
        monitor_(monitor::MonitorConfig{}) {
    cluster_.set_observer(&log);
    policy::PolicyInit init;
    init.rf = 3;
    init.local_rf = cluster_.config().local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    policy_ = core::static_level(cluster::Level::kOne)(init);
    cluster_.preload_range(kKeys, 64);
  }

  void run(double rate_per_s) {
    Client client(*this, /*home_dc=*/0, rate_per_s, sim_.fork_rng(1));
    sim_.set_setup_shard(0);
    client.start();
    sim_.run();
  }

  bool next_op(Op& op) override {
    if (ops_ == 300) return false;
    op = Op{OpType::kRead, ops_++ % kKeys, 64};
    return true;
  }
  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }
  void on_read_complete(const cluster::ReadResult&, SimDuration,
                        int) override {}
  void on_write_complete(const cluster::WriteResult&, SimDuration) override {}
  void on_client_finished() override {}

  ReadHookLog log;

 private:
  static constexpr std::uint64_t kKeys = 100;

  static sim::Simulation& sharded(sim::Simulation& sim, unsigned threads) {
    if (threads > 0) sim.configure_shards(2, kMillisecond, threads);
    return sim;
  }
  static cluster::ClusterConfig cluster_config() {
    cluster::ClusterConfig c;
    c.node_count = 8;
    c.dc_count = 2;
    c.rf = 3;
    c.latency = net::TieredLatencyModel::ec2_two_az();
    c.latency.cross_dc.floor = kMillisecond;
    return c;
  }

  sim::Simulation sim_{17};
  cluster::Cluster cluster_;
  monitor::Monitor monitor_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::uint64_t ops_ = 0;
};

TEST(Client, PacedReadIssueReportsIntendedArrival) {
  // The monitor's read-issue hook carries the time latency is measured from
  // — the op's intended arrival — over the one route (Cluster::record_*)
  // whether the cluster forwards at once or via the barrier-merged log.
  for (const unsigned threads : {0u, 2u}) {
    SCOPED_TRACE(threads);
    PacedClientProbe probe(threads);
    probe.run(/*rate_per_s=*/20'000);
    const ReadHookLog& log = probe.log;
    ASSERT_EQ(log.issued.size(), 300u);
    ASSERT_EQ(log.started.size(), 300u);
    EXPECT_EQ(log.issued, log.started);
    // A closed loop issues only after its previous op completed, so an
    // issue stamp earlier than that completion is an intended arrival the
    // client was late for.
    std::size_t late = 0;
    for (std::size_t i = 1; i < log.issued.size(); ++i) {
      if (log.issued[i] < log.completed[i - 1]) ++late;
    }
    EXPECT_GT(late, 100u);
  }
}

TEST(Runner, RejectsOpenLoopWarmupPastGeneration) {
  auto cfg = small_run();
  cfg.workload.open_loop.enabled = true;
  cfg.workload.open_loop.duration = kSecond;
  cfg.warmup = 2 * kSecond;
  EXPECT_THROW(run_experiment(cfg), CheckError);
}

TEST(Runner, RejectsClientDcOutOfRange) {
  auto cfg = small_run();
  cfg.workload.client_dc = 2;  // two DCs: ids 0 and 1
  EXPECT_THROW(run_experiment(cfg), CheckError);
}

/// The message of the CheckError run_experiment(cfg) throws ("" if none).
std::string rejection(const RunConfig& cfg) {
  try {
    run_experiment(cfg);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Runner, RejectsShardThreadsWithoutShards) {
  auto cfg = sharded_run(2, 1000);
  cfg.shards_per_dc = 0;
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("shards_per_dc"), std::string::npos)
      << rejection(cfg);
}

TEST(Runner, RejectsMoreThan255Shards) {
  auto cfg = sharded_run(2, 1000);
  cfg.shards_per_dc = 86;  // 3 DCs x 86 = 258 event shards
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("dc_count * shards_per_dc"), std::string::npos)
      << rejection(cfg);
}

TEST(Runner, RejectsDcReroutingAcrossShards) {
  auto cfg = sharded_run(2, 1000);
  cfg.workload.reroute_on_dc_outage = true;
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("reroute_on_dc_outage"), std::string::npos)
      << rejection(cfg);
}

// Placement knobs: rejected up front, naming the knob, instead of by the
// unnamed checks in the Cluster and TokenRing constructors.
TEST(Runner, RejectsRfOutOfRange) {
  for (const int rf : {0, 9}) {  // 9 > node_count (8)
    auto cfg = small_run();
    cfg.cluster.use_nts = false;
    cfg.cluster.rf = rf;
    EXPECT_THROW(run_experiment(cfg), CheckError) << "rf " << rf;
    EXPECT_NE(rejection(cfg).find("cluster.rf = " + std::to_string(rf) +
                                  " must be in [1, min("),
              std::string::npos)
        << rejection(cfg);
  }
  auto wide = small_run();
  wide.cluster.use_nts = false;
  wide.cluster.node_count = cluster::kMaxReplicas + 4;
  wide.cluster.rf = cluster::kMaxReplicas + 1;
  EXPECT_THROW(run_experiment(wide), CheckError);
  EXPECT_NE(rejection(wide).find("kMaxReplicas"), std::string::npos)
      << rejection(wide);
}

TEST(Runner, RejectsVnodesBelowOne) {
  auto cfg = small_run();
  cfg.cluster.vnodes_per_node = 0;
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("cluster.vnodes_per_node = 0 must be >= 1"),
            std::string::npos)
      << rejection(cfg);
}

TEST(Runner, RejectsDcCountOutOfRange) {
  // {node_count, dc_count}: no DC, more DCs than nodes, more than kMaxDcs.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {8, 0}, {4, 5}, {16, cluster::kMaxDcs + 1}};
  for (const auto& [nodes, dcs] : cases) {
    auto cfg = small_run();
    cfg.cluster.node_count = nodes;
    cfg.cluster.dc_count = dcs;
    EXPECT_THROW(run_experiment(cfg), CheckError) << "dc_count " << dcs;
    EXPECT_NE(rejection(cfg).find("cluster.dc_count = " + std::to_string(dcs) +
                                  " must be in [1, min(kMaxDcs"),
              std::string::npos)
        << rejection(cfg);
  }
}

TEST(Runner, RejectsNtsSplitPastDcSize) {
  // 5 nodes over 2 DCs hold 3 and 2; rf 6 splits 3 + 3 under NTS, one more
  // replica than DC 1 has nodes. The check names that DC.
  auto cfg = small_run();
  cfg.cluster.node_count = 5;
  cfg.cluster.rf = 6;
  cfg.cluster.use_nts = true;
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("puts 3 replicas in DC 1, which has 2 nodes"),
            std::string::npos)
      << rejection(cfg);
}

TEST(Runner, ShardedTraceCaptureMatchesSerial) {
  // record_trace used to be rejected under sharding; it now captures into
  // per-shard buffers stitched by (time, seq) at collect. The merged trace
  // must be byte-identical to the merged-serial reference for every thread
  // count.
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads, 2000);
    cfg.record_trace = true;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  ASSERT_NE(serial.trace, nullptr);
  ASSERT_NE(four.trace, nullptr);
  ASSERT_EQ(serial.trace->records.size(), four.trace->records.size());
  EXPECT_GT(serial.trace->records.size(), 1000u);
  for (std::size_t i = 0; i < serial.trace->records.size(); ++i) {
    const auto& a = serial.trace->records[i];
    const auto& b = four.trace->records[i];
    ASSERT_EQ(a.time, b.time) << "trace diverges at record " << i;
    ASSERT_EQ(a.op, b.op) << "trace diverges at record " << i;
    ASSERT_EQ(a.key, b.key) << "trace diverges at record " << i;
    ASSERT_EQ(a.value_size, b.value_size) << "trace diverges at record " << i;
  }
}

// ---- key-range sharding (RunConfig::shards_per_dc) --------------------------

/// Single-DC run split into `shards` key-range shards: the configuration
/// PR 8 could not parallelize at all (one DC == one shard == one thread).
RunConfig key_range_run(unsigned threads, unsigned shards,
                        std::uint64_t ops = 6000) {
  RunConfig cfg = small_run(ops);
  cfg.cluster.dc_count = 1;
  cfg.cluster.node_count = 8;
  cfg.cluster.latency.cross_dc.floor = kMillisecond;
  // Intra-DC hops cross shards now, so the intra-DC floors must cover the
  // lookahead (the runner takes the min over all three).
  cfg.cluster.latency.same_rack.floor = usec(150);
  cfg.cluster.latency.same_dc.floor = usec(150);
  cfg.workload.clients_per_dc = 8;
  cfg.num_shard_threads = threads;
  cfg.shards_per_dc = shards;
  cfg.seed = 31;
  return cfg;
}

TEST(Runner, KeyRangeShardedRunIsThreadCountInvariant) {
  const auto serial = run_experiment(key_range_run(1, 4));
  const auto two = run_experiment(key_range_run(2, 4));
  const auto four = run_experiment(key_range_run(4, 4));
  EXPECT_GT(serial.reads, 1000u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, two);
  expect_same_run(serial, four);
  EXPECT_EQ(serial.mailbox_spills, 0u);
}

TEST(Runner, KeyRangeShardedInsertWorkloadIsThreadCountInvariant) {
  auto make = [](unsigned threads) {
    auto cfg = key_range_run(threads, 4, 4000);
    cfg.workload = WorkloadSpec::ycsb_d();  // insert-heavy: skip-scan lanes
    cfg.workload.op_count = 4000;
    cfg.workload.record_count = 500;
    cfg.workload.clients_per_dc = 8;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  EXPECT_GT(serial.writes, 0u);
  EXPECT_EQ(serial.errors, 0u);
  expect_same_run(serial, four);
}

TEST(Runner, KeyRangeShardedMonitorFeedsAdaptivePolicy) {
  // The lifted restrictions working together: the monitor attaches to a
  // sharded run (fed from per-shard logs merged at barriers), the Harmony
  // policy re-tunes at fenced ticks, and anti-entropy sweeps per shard —
  // all byte-identical across thread counts, including the policy's level
  // decisions (read_level_usage) and the monitor-driven staleness results.
  auto make = [](unsigned threads) {
    auto cfg = key_range_run(threads, 4);
    cfg.policy = core::harmony_policy(0.2);
    cfg.policy_tick = 100 * kMillisecond;
    cfg.cluster.anti_entropy_period = 200 * kMillisecond;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  expect_same_run(serial, four);
  ASSERT_FALSE(serial.read_level_usage.empty());
  ASSERT_EQ(serial.read_level_usage.size(), four.read_level_usage.size());
  for (const auto& [level, count] : serial.read_level_usage) {
    EXPECT_EQ(four.read_level_usage.at(level), count) << "level " << level;
  }
  EXPECT_EQ(serial.policy_switches, four.policy_switches);
  // The monitor really saw traffic: its final state drives the paper's
  // estimators, so a silently-empty monitor would pass expect_same_run.
  EXPECT_GT(serial.final_state.read_rate, 0.0);
  EXPECT_DOUBLE_EQ(serial.final_state.read_rate, four.final_state.read_rate);
  EXPECT_DOUBLE_EQ(serial.final_state.write_rate, four.final_state.write_rate);
}

TEST(Runner, ShardedPerDcMonitorPolicyAntiEntropyThreadInvariant) {
  // The same lifted restrictions on the PR 8 per-DC layout (3 DCs, one
  // shard each): monitor, fenced Harmony policy ticks, and per-shard
  // anti-entropy, byte-identical between merged-serial and 4 threads.
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads);
    cfg.policy = core::harmony_policy(0.2);
    cfg.policy_tick = 100 * kMillisecond;
    cfg.cluster.anti_entropy_period = 200 * kMillisecond;
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  expect_same_run(serial, four);
  EXPECT_EQ(serial.policy_switches, four.policy_switches);
  EXPECT_GT(serial.final_state.read_rate, 0.0);
  EXPECT_DOUBLE_EQ(serial.final_state.read_rate, four.final_state.read_rate);
}

TEST(Runner, ShardedFaultScheduleIsThreadCountInvariant) {
  auto make = [](unsigned threads) {
    auto cfg = sharded_run(threads, 5000);
    // Kill one node per DC mid-run and revive it; fault instants are fences.
    for (net::NodeId n = 0; n < 3; ++n) {
      cfg.fault_schedule.push_back({300 * kMillisecond + n * 50 * kMillisecond,
                                    cluster::FaultOp::kKillNode, n, 0, 1.0});
      cfg.fault_schedule.push_back({800 * kMillisecond + n * 50 * kMillisecond,
                                    cluster::FaultOp::kReviveNode, n, 0, 1.0});
    }
    return cfg;
  };
  const auto serial = run_experiment(make(1));
  const auto four = run_experiment(make(4));
  expect_same_run(serial, four);
}

TEST(Runner, SummaryContainsPolicyName) {
  const auto r = run_experiment(small_run(2000));
  EXPECT_NE(r.summary().find("static-ONE"), std::string::npos);
}

}  // namespace
}  // namespace harmony::workload
