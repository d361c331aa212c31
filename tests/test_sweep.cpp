#include "workload/sweep.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/static_policy.h"

namespace harmony::workload {
namespace {

RunConfig small_run(std::uint64_t ops = 2000) {
  RunConfig cfg;
  cfg.label = "cell";
  cfg.cluster.node_count = 6;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = WorkloadSpec::ycsb_a();
  cfg.workload.op_count = ops;
  cfg.workload.record_count = 200;
  cfg.workload.clients_per_dc = 4;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 100 * kMillisecond;
  cfg.seed = 11;
  return cfg;
}

/// Everything the sweep aggregates, flattened for exact comparison.
std::vector<double> fingerprint(const std::vector<SweepStats>& stats) {
  std::vector<double> fp;
  for (const auto& s : stats) {
    fp.push_back(static_cast<double>(s.runs.size()));
    fp.push_back(s.throughput.mean);
    fp.push_back(s.throughput.stddev);
    fp.push_back(s.throughput.ci95);
    fp.push_back(s.stale_fraction.mean);
    fp.push_back(s.bill_total.mean);
    fp.push_back(s.avg_read_replicas.mean);
    fp.push_back(static_cast<double>(s.read_latency.count()));
    fp.push_back(static_cast<double>(s.read_latency.percentile(95)));
    fp.push_back(static_cast<double>(s.write_latency.count()));
    fp.push_back(static_cast<double>(s.staleness_age.count()));
    for (const auto& r : s.runs) {
      fp.push_back(static_cast<double>(r.sim_events));
      fp.push_back(static_cast<double>(r.stale_reads));
      fp.push_back(r.throughput);
      fp.push_back(r.bill.total());
    }
  }
  return fp;
}

std::vector<SweepStats> run_grid(std::size_t jobs, unsigned seeds = 3) {
  SweepOptions opts;
  opts.seeds = seeds;
  opts.jobs = jobs;
  SweepRunner runner(opts);
  auto one = small_run();
  one.label = "ONE";
  runner.add(one);
  auto quorum = small_run();
  quorum.label = "QUORUM";
  quorum.policy = core::static_level(cluster::Level::kQuorum);
  runner.add(quorum);
  return runner.run();
}

TEST(Sweep, JobsDoNotChangeResults) {
  // The acceptance bar: --jobs N must be byte-identical to --jobs 1.
  const auto serial = run_grid(1);
  const auto two = run_grid(2);
  const auto eight = run_grid(8);
  const auto fp = fingerprint(serial);
  EXPECT_EQ(fp, fingerprint(two));
  EXPECT_EQ(fp, fingerprint(eight));
}

TEST(Sweep, SingleSeedCellMatchesDirectRunExperiment) {
  // A 1-seed sweep must reproduce a plain serial run_experiment() call.
  SweepOptions opts;
  opts.seeds = 1;
  opts.jobs = 4;
  SweepRunner runner(opts);
  runner.add(small_run());
  const auto stats = runner.run();
  const auto direct = run_experiment(small_run());
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_EQ(stats[0].runs.size(), 1u);
  const auto& r = stats[0].runs[0];
  EXPECT_EQ(r.sim_events, direct.sim_events);
  EXPECT_EQ(r.stale_reads, direct.stale_reads);
  EXPECT_EQ(r.reads, direct.reads);
  EXPECT_DOUBLE_EQ(r.throughput, direct.throughput);
  EXPECT_DOUBLE_EQ(r.bill.total(), direct.bill.total());
  EXPECT_EQ(stats[0].read_latency.count(), direct.read_latency.count());
  EXPECT_EQ(stats[0].read_latency.percentile(95),
            direct.read_latency.percentile(95));
}

TEST(Sweep, SeedsAreBasePlusReplicate) {
  SweepOptions opts;
  opts.seeds = 3;
  opts.jobs = 2;
  SweepRunner runner(opts);
  runner.add(small_run());
  const auto stats = runner.run();
  ASSERT_EQ(stats[0].runs.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    auto cfg = small_run();
    cfg.seed += i;
    const auto direct = run_experiment(cfg);
    EXPECT_EQ(stats[0].runs[i].sim_events, direct.sim_events) << "seed +" << i;
  }
  // Different seeds should actually differ.
  EXPECT_NE(stats[0].runs[0].sim_events, stats[0].runs[1].sim_events);
}

TEST(Sweep, CellOrderIsInsertionOrder) {
  const auto stats = run_grid(4);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].label, "ONE");
  EXPECT_EQ(stats[1].label, "QUORUM");
  EXPECT_EQ(stats[0].policy_name, "static-ONE");
}

TEST(Sweep, MergedHistogramsCoverAllSeeds) {
  const auto stats = run_grid(2, 3);
  std::uint64_t reads = 0;
  for (const auto& r : stats[0].runs) reads += r.read_latency.count();
  EXPECT_EQ(stats[0].read_latency.count(), reads);
  EXPECT_GT(reads, 0u);
}

TEST(Sweep, OverComputesArbitraryMetrics) {
  const auto stats = run_grid(2, 3);
  const auto errors = stats[0].over(
      [](const RunResult& r) { return static_cast<double>(r.errors); });
  EXPECT_EQ(errors.n, 3u);
  const auto thr = stats[0].over([](const RunResult& r) { return r.throughput; });
  EXPECT_DOUBLE_EQ(thr.mean, stats[0].throughput.mean);
}

TEST(Sweep, ZeroJobsUsesHardwareConcurrency) {
  SweepOptions opts;
  opts.seeds = 2;
  opts.jobs = 0;
  SweepRunner runner(opts);
  runner.add(small_run(1500));
  const auto stats = runner.run();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].runs.size(), 2u);
}

TEST(Sweep, RequiresPolicy) {
  SweepRunner runner;
  RunConfig cfg = small_run();
  cfg.policy = nullptr;
  EXPECT_THROW(runner.add(std::move(cfg)), CheckError);
}

TEST(MetricSummary, BasicStatistics) {
  const auto s = summarize_metric({2.0, 4.0, 6.0});
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  // t(0.975, df=2) = 4.303; half-width = t * s / sqrt(n).
  EXPECT_NEAR(s.ci95, 4.303 * 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(MetricSummary, SingleSampleHasNoSpread) {
  const auto s = summarize_metric({7.5});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(MetricSummary, EmptyIsZero) {
  const auto s = summarize_metric({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(MetricSummary, LargeSampleUsesNormalQuantile) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(static_cast<double>(i % 10));
  const auto s = summarize_metric(xs);
  EXPECT_NEAR(s.ci95, 1.96 * s.stddev / 10.0, 1e-9);
}

}  // namespace
}  // namespace harmony::workload
