#include "workload/runner.h"

#include <gtest/gtest.h>

#include <limits>
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

/// A monitor that logs the client-side read hooks it is called with.
class ReadHookLog final : public monitor::Monitor {
 public:
  void record_read_issued(SimTime now, std::uint64_t) override {
    issued.push_back(now);
  }
  void record_read_complete(SimTime now, SimDuration latency) override {
    started.push_back(now - latency);
    completed.push_back(now);
  }
  std::vector<SimTime> issued, started, completed;
};

/// One overdriven rate-paced client in DC 0 of a two-DC cluster.
class PacedClientProbe final : public ClientEnv {
 public:
  PacedClientProbe()
      : cluster_(sim_, cluster_config()) {
    policy::PolicyInit init;
    init.rf = 3;
    init.local_rf = cluster_.config().local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    policy_ = core::static_level(cluster::Level::kOne)(init);
    cluster_.preload_range(kKeys, 64);
  }

  void run(double rate_per_s) {
    Client client(*this, /*home_dc=*/0, rate_per_s, sim_.fork_rng(1));
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
  monitor::Monitor& monitor() override { return log; }
  sim::Simulation& simulation() override { return sim_; }
  void on_read_complete(const cluster::ReadResult&, SimDuration,
                        int) override {}
  void on_write_complete(const cluster::WriteResult&, SimDuration) override {}
  void on_client_finished() override {}

  ReadHookLog log;

 private:
  static constexpr std::uint64_t kKeys = 100;

  static cluster::ClusterConfig cluster_config() {
    cluster::ClusterConfig c;
    c.node_count = 8;
    c.dc_count = 2;
    c.rf = 3;
    c.latency = net::TieredLatencyModel::ec2_two_az();
    return c;
  }

  sim::Simulation sim_{17};
  cluster::Cluster cluster_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::uint64_t ops_ = 0;
};

TEST(Client, PacedReadIssueReportsIntendedArrival) {
  // The monitor's read-issue hook carries the time latency is measured from:
  // the op's intended arrival.
  PacedClientProbe probe;
  probe.run(/*rate_per_s=*/20'000);
  const ReadHookLog& log = probe.log;
  ASSERT_EQ(log.issued.size(), 300u);
  ASSERT_EQ(log.started.size(), 300u);
  EXPECT_EQ(log.issued, log.started);
  // A closed loop issues only after its previous op completed, so an issue
  // stamp earlier than that completion is an intended arrival the client
  // was late for.
  std::size_t late = 0;
  for (std::size_t i = 1; i < log.issued.size(); ++i) {
    if (log.issued[i] < log.completed[i - 1]) ++late;
  }
  EXPECT_GT(late, 100u);
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

// Fault schedules: every bad entry is rejected up front, naming the entry
// and the field, instead of failing at its fault instant (or never).
TEST(Runner, RejectsFaultNodeOutOfRange) {
  auto cfg = small_run();
  cfg.fault_schedule.push_back(
      {100 * kMillisecond, cluster::FaultOp::kKillNode, 0, 0, 1.0});
  cfg.fault_schedule.push_back(
      {200 * kMillisecond, cluster::FaultOp::kDegradeNode, 8, 0, 2.0});
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("fault_schedule[1].node = 8 must be < "
                                "cluster.node_count = 8"),
            std::string::npos)
      << rejection(cfg);

  auto legacy = small_run();
  legacy.faults.push_back({100 * kMillisecond, 9, true});
  EXPECT_THROW(run_experiment(legacy), CheckError);
  EXPECT_NE(rejection(legacy).find("faults[0].node = 9 must be < "
                                   "cluster.node_count = 8"),
            std::string::npos)
      << rejection(legacy);
}

TEST(Runner, RejectsFaultDcOutOfRange) {
  auto cfg = small_run();
  cfg.fault_schedule.push_back(
      {100 * kMillisecond, cluster::FaultOp::kDcBlackout, 0, 2, 1.0});
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("fault_schedule[0].dc = 2 must be < "
                                "cluster.dc_count = 2"),
            std::string::npos)
      << rejection(cfg);
}

TEST(Runner, RejectsNegativeFaultTime) {
  auto cfg = small_run();
  cfg.fault_schedule.push_back({-1, cluster::FaultOp::kRestoreWan, 0, 0, 1.0});
  EXPECT_THROW(run_experiment(cfg), CheckError);
  EXPECT_NE(rejection(cfg).find("fault_schedule[0].at = -1 must be >= 0"),
            std::string::npos)
      << rejection(cfg);

  auto legacy = small_run();
  legacy.faults.push_back({-5, 0, true});
  EXPECT_NE(rejection(legacy).find("faults[0].at = -5 must be >= 0"),
            std::string::npos)
      << rejection(legacy);
}

TEST(Runner, RejectsDegradeFactorNotFinitePositive) {
  const double bad[] = {0.0, -2.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (const auto op :
       {cluster::FaultOp::kDegradeNode, cluster::FaultOp::kDegradeWan}) {
    for (const double factor : bad) {
      auto cfg = small_run();
      cfg.fault_schedule.push_back({100 * kMillisecond, op, 1, 0, factor});
      EXPECT_THROW(run_experiment(cfg), CheckError) << "factor " << factor;
      EXPECT_NE(rejection(cfg).find("fault_schedule[0].factor = "),
                std::string::npos)
          << rejection(cfg);
      EXPECT_NE(rejection(cfg).find("must be finite and > 0"),
                std::string::npos)
          << rejection(cfg);
    }
  }
  // Restore ops carry no factor; a sub-1 degrade factor (a faster link) is
  // legal.
  auto ok = small_run(1000);
  ok.fault_schedule.push_back(
      {100 * kMillisecond, cluster::FaultOp::kDegradeNode, 1, 0, 0.5});
  ok.fault_schedule.push_back(
      {200 * kMillisecond, cluster::FaultOp::kRestoreNode, 1, 0, 0.0});
  EXPECT_EQ(rejection(ok), "");
}

void expect_same_histogram(const LatencyHistogram& a, const LatencyHistogram& b,
                           const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_DOUBLE_EQ(a.mean(), b.mean()) << what;
  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << what << " p" << p;
  }
}

/// Every counter and histogram of two runs, field by field.
void expect_identical_runs(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  expect_same_histogram(a.read_latency, b.read_latency, "read_latency");
  expect_same_histogram(a.write_latency, b.write_latency, "write_latency");
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_EQ(a.fresh_reads, b.fresh_reads);
  EXPECT_DOUBLE_EQ(a.stale_fraction, b.stale_fraction);
  expect_same_histogram(a.staleness_age, b.staleness_age, "staleness_age");
  EXPECT_EQ(a.read_level_usage, b.read_level_usage);
  EXPECT_DOUBLE_EQ(a.avg_read_replicas, b.avg_read_replicas);
  EXPECT_EQ(a.policy_switches, b.policy_switches);
  EXPECT_DOUBLE_EQ(a.bill.total(), b.bill.total());
  EXPECT_DOUBLE_EQ(a.energy_kwh, b.energy_kwh);
  EXPECT_DOUBLE_EQ(a.final_state.read_rate, b.final_state.read_rate);
  EXPECT_DOUBLE_EQ(a.final_state.write_rate, b.final_state.write_rate);
  EXPECT_EQ(a.net.total_messages(), b.net.total_messages());
  EXPECT_EQ(a.net.total_bytes(), b.net.total_bytes());
  EXPECT_EQ(a.net.cross_dc_bytes(), b.net.cross_dc_bytes());
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.unavailable, b.unavailable);
  EXPECT_EQ(a.read_repairs, b.read_repairs);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.mailbox_spills, b.mailbox_spills);
  EXPECT_DOUBLE_EQ(a.total_wall_s, b.total_wall_s);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges_fired, b.hedges_fired);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.client_shed_retries, b.client_shed_retries);
  EXPECT_EQ(a.rerouted_ops, b.rerouted_ops);
  const OpenLoopResult& x = a.open_loop;
  const OpenLoopResult& y = b.open_loop;
  EXPECT_EQ(x.arrivals, y.arrivals);
  EXPECT_EQ(x.issued, y.issued);
  EXPECT_EQ(x.completed, y.completed);
  EXPECT_EQ(x.failed, y.failed);
  EXPECT_EQ(x.shed_admission, y.shed_admission);
  EXPECT_EQ(x.shed_queue_full, y.shed_queue_full);
  EXPECT_EQ(x.queued_at_end, y.queued_at_end);
  EXPECT_EQ(x.in_flight_at_end, y.in_flight_at_end);
  EXPECT_EQ(x.sla_ok, y.sla_ok);
  EXPECT_EQ(x.sla_total, y.sla_total);
  EXPECT_DOUBLE_EQ(x.offered_rate, y.offered_rate);
  expect_same_histogram(x.queueing_delay, y.queueing_delay, "queueing_delay");
}

TEST(Runner, ShardFieldsAreIgnored) {
  // num_shard_threads / shards_per_dc are inert: a run that sets them is
  // the run with the defaults, and never reports a mailbox spill.
  auto open = small_run();
  open.workload.open_loop.enabled = true;
  open.workload.open_loop.rate_per_s = 4000;
  open.workload.open_loop.duration = 2 * kSecond;
  open.workload.open_loop.drain_grace = kSecond;
  open.workload.open_loop.user_count = 20'000;
  for (const RunConfig& base : {small_run(), open}) {
    RunConfig sharded = base;
    sharded.num_shard_threads = 4;
    sharded.shards_per_dc = 4;
    const RunResult plain = run_experiment(base);
    const RunResult other = run_experiment(sharded);
    EXPECT_GT(plain.reads, 500u);
    expect_identical_runs(plain, other);
    EXPECT_EQ(other.mailbox_spills, 0u);
  }
}

TEST(Runner, SummaryContainsPolicyName) {
  const auto r = run_experiment(small_run(2000));
  EXPECT_NE(r.summary().find("static-ONE"), std::string::npos);
}

}  // namespace
}  // namespace harmony::workload
