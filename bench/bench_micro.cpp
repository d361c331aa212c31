// Component microbenchmarks (google-benchmark): the substrate operations the
// experiment harness leans on. These quantify simulator capacity — how many
// simulated operations per real second a bench binary can push.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/token_ring.h"
#include "common/distributions.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/stale_model.h"
#include "ml/kmeans.h"
#include "sim/simulation.h"

namespace {

using namespace harmony;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(1);
  ZipfianKeys zipf(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ZipfianNext)->Arg(1000)->Arg(1'000'000);

void BM_ScrambledZipfianNext(benchmark::State& state) {
  Rng rng(1);
  ScrambledZipfianKeys zipf(1'000'000);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ScrambledZipfianNext);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(1);
  for (auto _ : state) h.record(static_cast<SimDuration>(rng.exponential(2000)));
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

// BM_RingLookup and BM_RingLookupNts time the ring walk a cluster runs once
// per vnode arc at set-up (plus the binary search that finds a key's arc);
// BM_ReplicasFor below times the request-path lookup.
void BM_RingLookup(benchmark::State& state) {
  const auto topo = net::Topology::balanced(84, 2);
  cluster::TokenRing ring(topo, static_cast<int>(state.range(0)), 42);
  Rng rng(1);
  cluster::ReplicaList out;
  for (auto _ : state) {
    ring.replicas_simple(rng.next(), 3, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RingLookup)->Arg(8)->Arg(64)->Arg(256);

void BM_RingLookupNts(benchmark::State& state) {
  const auto topo = net::Topology::balanced(18, 2);
  cluster::TokenRing ring(topo, 64, 42);
  Rng rng(1);
  const cluster::DcCounts rf_per_dc{3, 2};
  cluster::ReplicaList out;
  for (auto _ : state) {
    ring.replicas_nts(rng.next(), rf_per_dc, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RingLookupNts);

void BM_ReplicasFor(benchmark::State& state) {
  // Cluster::replicas_for over a pre-drawn key stream, in the two gated
  // perfbench shapes. /0 is harmony_ec2's: 20 nodes / 2 DCs / rf 3, plain
  // zipfian over 250 hot keys. /1 is openloop_2m_users's: 8 nodes / 2 DCs /
  // rf 3, scrambled zipfian over 1M records, so the key set is far larger
  // than any per-key cache. An item is one lookup.
  const bool big = state.range(0) != 0;
  sim::Simulation sim(42);
  cluster::ClusterConfig cfg;
  cfg.node_count = big ? 8 : 20;
  cfg.dc_count = 2;
  cfg.rf = 3;
  const cluster::Cluster c(sim, cfg);
  Rng rng(1);
  std::vector<cluster::Key> keys(std::size_t{1} << 20);
  if (big) {
    ScrambledZipfianKeys records(1'000'000);
    for (auto& k : keys) k = records.next(rng);
  } else {
    ZipfianKeys hot(250);
    for (auto& k : keys) k = hot.next(rng);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.replicas_for(keys[i]).front());
    i = (i + 1) & (keys.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(big ? "1M scrambled" : "250 hot");
}
BENCHMARK(BM_ReplicasFor)->Arg(0)->Arg(1);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(1);
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i % 97, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Slab and heap warmed once; measures the pure schedule+pop cycle the
  // simulation main loop pays per event (zero allocations in steady state).
  sim::Simulation sim(1);
  std::uint64_t ticks = 0;
  for (int i = 0; i < 4096; ++i) sim.schedule(i % 101, [&ticks] { ++ticks; });
  sim.run();
  std::int64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i % 97, [&ticks] { ++ticks; });
    }
    sim.run();
    events += 1000;
  }
  benchmark::DoNotOptimize(ticks);
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueueSteadyState);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Schedule-then-cancel half the events: measures tombstone sweeping and
  // slot/generation recycling under heavy cancellation (timeout-style load).
  sim::Simulation sim(1);
  std::vector<sim::EventHandle> handles;
  handles.reserve(1000);
  std::int64_t events = 0;
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule(1 + i % 97, [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    sim.run();
    events += 1000;
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_StaleModelEval(benchmark::State& state) {
  core::StaleModelParams params;
  params.lambda_w = 500;
  params.prop_delays_us = {300, 700, 1100, 9000, 11000};
  const core::StaleReadModel model(params);
  for (auto _ : state) {
    for (int k = 1; k <= 4; ++k) benchmark::DoNotOptimize(model.p_stale(k));
  }
}
BENCHMARK(BM_StaleModelEval);

void BM_KMeansFit(benchmark::State& state) {
  Rng rng(7);
  ml::FeatureMatrix x;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.normal(i % 3 * 10.0, 1.0), rng.normal(i % 3 * -5.0, 1.0)});
  }
  ml::KMeansOptions opt;
  opt.k = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(x, opt).inertia);
  }
}
BENCHMARK(BM_KMeansFit);

void BM_ClusterThroughput(benchmark::State& state) {
  // End-to-end simulated client ops per wall-clock second at a fixed
  // consistency level: a closed loop of 64 in-flight clients issuing a 70/30
  // read/write zipfian mix against a 10-node, 2-DC, rf=3 cluster. This is the
  // headline "simulator capacity" number — everything the experiment harness
  // does sits on this path. range(0) is the replica count both reads and
  // writes wait for (1 = ONE, 2 = QUORUM of rf 3).
  const int level = static_cast<int>(state.range(0));
  sim::Simulation sim(1);
  cluster::ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 3;
  cluster::Cluster c(sim, cfg);
  c.preload_range(10'000, 1024);
  Rng rng(3);
  ZipfianKeys zipf(10'000);
  std::uint64_t done = 0;
  const auto req = cluster::resolve_count(level, 3);
  constexpr int kInflight = 64;

  std::function<void()> issue = [&] {
    const cluster::Key key = zipf.next(rng);
    const net::DcId dc = static_cast<net::DcId>(rng.uniform_u64(2));
    if (rng.chance(0.3)) {
      c.client_write(dc, key, 1024, req, [&](const cluster::WriteResult&) {
        ++done;
        issue();
      });
    } else {
      c.client_read(dc, key, req, [&](const cluster::ReadResult&) {
        ++done;
        issue();
      });
    }
  };

  for (auto _ : state) {
    const std::uint64_t start_ops = done;
    for (int i = 0; i < kInflight; ++i) issue();
    // Run the closed loop for a fixed slice of simulated time, then let the
    // remaining requests drain without reissuing.
    sim.run_until(sim.now() + 50 * kMillisecond);
    auto drain = std::move(issue);
    issue = [] {};
    sim.run();
    issue = std::move(drain);
    benchmark::DoNotOptimize(done - start_ops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
  state.SetLabel(level == 1 ? "CL=ONE" : "CL=QUORUM");
}
BENCHMARK(BM_ClusterThroughput)->Arg(1)->Arg(2);

void BM_ClusterOps(benchmark::State& state) {
  // End-to-end simulated read+write pair throughput of the cluster substrate
  // (how many simulated ops one real second of benching covers).
  sim::Simulation sim(1);
  cluster::ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 3;
  cluster::Cluster c(sim, cfg);
  c.preload_range(1000, 1024);
  Rng rng(3);
  std::uint64_t done = 0;
  for (auto _ : state) {
    const cluster::Key key = rng.uniform_u64(1000);
    c.client_write(0, key, 1024, cluster::resolve_count(1, 3),
                   [&](const cluster::WriteResult&) { ++done; });
    c.client_read(1, key, cluster::resolve_count(1, 3),
                  [&](const cluster::ReadResult&) { ++done; });
    sim.run();
  }
  benchmark::DoNotOptimize(done);
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ClusterOps);

void BM_PreloadRange(benchmark::State& state) {
  // Bulk dataset load (Cluster::preload_range) of range(0) records onto the
  // open-loop benchmark's cluster shape, 8 nodes / 2 DCs / rf 3: placement,
  // store sizing and the fill. Each iteration loads a fresh cluster; building
  // and tearing it down is untimed.
  const auto count = static_cast<std::uint64_t>(state.range(0));
  cluster::ClusterConfig cfg;
  cfg.node_count = 8;
  cfg.dc_count = 2;
  cfg.rf = 3;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulation>(42);
    auto c = std::make_unique<cluster::Cluster>(*sim, cfg);
    state.ResumeTiming();
    c->preload_range(count, 1024);
    state.PauseTiming();
    c.reset();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PreloadRange)->Arg(100'000)->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
