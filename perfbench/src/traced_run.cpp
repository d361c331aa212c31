#include "traced_run.h"

#include <memory>
#include <stdexcept>

#include "cluster/cluster.h"
#include "monitor/monitor.h"
#include "sim/simulation.h"
#include "workload/client.h"
#include "workload/open_loop.h"

namespace perfbench {

using namespace harmony;
using workload::RunConfig;
using workload::RunResult;

namespace {

/// The dispatch wrappers are plain function pointers (EventDispatchFn), so
/// the tracer they report to is process-global; the traced pass is serial.
Tracer* g_tracer = nullptr;

void traced_cluster_dispatch(const sim::TypedEvent& ev) {
  g_tracer->span(g_tracer->kind[static_cast<std::size_t>(ev.kind)],
                 [&] { cluster::Cluster::dispatch_event(ev); });
}

void traced_workload_dispatch(const sim::TypedEvent& ev) {
  g_tracer->span(g_tracer->kind[static_cast<std::size_t>(ev.kind)],
                 [&] { workload::Client::dispatch_event(ev); });
}

/// Monitor whose observer hooks are spans; the issue hooks also record the
/// key stream for the placement and key-generation replays.
class TracedMonitor final : public monitor::Monitor {
 public:
  TracedMonitor(monitor::MonitorConfig cfg, Tracer& tracer,
                std::vector<cluster::Key>& keys)
      : Monitor(cfg), tracer_(tracer), keys_(keys) {}

  void record_read_issued(SimTime now, std::uint64_t key) override {
    keys_.push_back(key);
    tracer_.span(tracer_.monitor, [&] { Monitor::record_read_issued(now, key); });
  }
  void record_write_issued(SimTime now, std::uint64_t key,
                           std::uint32_t value_size) override {
    keys_.push_back(key);
    tracer_.span(tracer_.monitor, [&] {
      Monitor::record_write_issued(now, key, value_size);
    });
  }
  void record_read_complete(SimTime now, SimDuration latency) override {
    tracer_.span(tracer_.monitor,
                 [&] { Monitor::record_read_complete(now, latency); });
  }
  void record_write_complete(SimTime now, SimDuration latency) override {
    tracer_.span(tracer_.monitor,
                 [&] { Monitor::record_write_complete(now, latency); });
  }
  void on_write_propagated(cluster::Key key, SimTime write_start,
                           const cluster::DelayList& delays) override {
    tracer_.span(tracer_.monitor, [&] {
      Monitor::on_write_propagated(key, write_start, delays);
    });
  }
  void on_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                           bool cross_dc) override {
    tracer_.span(tracer_.monitor, [&] {
      Monitor::on_replica_read_rtt(replica, rtt, cross_dc);
    });
  }

 private:
  Tracer& tracer_;
  std::vector<cluster::Key>& keys_;
};

/// Captures every oracle call of the live run, in order.
class OracleLog final : public cluster::StalenessOracle::TraceSink {
 public:
  explicit OracleLog(std::vector<OracleCall>& calls) : calls_(calls) {}

  void on_commit(cluster::Key key, const cluster::Version& version,
                 SimTime t) override {
    calls_.push_back({OracleCall::kCommit, false, key, version, t, 0});
  }
  void on_begin_read(SimTime read_start) override {
    calls_.push_back({OracleCall::kBeginRead, false, 0, {}, read_start, 0});
  }
  void on_end_read(SimTime read_start) override {
    calls_.push_back({OracleCall::kEndRead, false, 0, {}, read_start, 0});
  }
  void on_judge(cluster::Key key, const cluster::Version& returned,
                SimTime read_start,
                const cluster::StalenessOracle::Judgement& j) override {
    calls_.push_back(
        {OracleCall::kJudge, j.stale, key, returned, read_start, j.age});
  }

 private:
  std::vector<OracleCall>& calls_;
};

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// run_experiment's serial path, rebuilt from public pieces with the same
/// construction order, RNG forks, event schedule and collection, so the
/// traced run simulates exactly what the untraced one did.
class AssembledRun final : public workload::ClientEnv {
 public:
  AssembledRun(const RunConfig& cfg, TracedRun& out, PhaseMarks& marks)
      : cfg_(cfg),
        out_(out),
        sim_(cfg.seed),
        cluster_(sim_, cfg.cluster),
        monitor_(cfg.monitor, out.tracer, out.keys),
        op_rng_(sim_.fork_rng(0x0FAB5EED)),
        request_dist_(
            cfg.workload.request_dist.build(cfg.workload.record_count)),
        oracle_log_(out.oracle_calls) {
    cfg_.workload.validate();
    monitor_.attach(cluster_, /*client_home_dc=*/0);
    policy::PolicyInit init;
    init.rf = cfg_.cluster.rf;
    init.local_rf = cfg_.cluster.local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    policy_ = probed(cfg_.policy, &marks, &out.tracer)(init);
  }

  void run() {
    const std::int64_t preload0 = wall_now_ns();
    cluster_.preload_range(cfg_.workload.record_count, cfg_.workload.value_size);
    next_insert_key_ = cfg_.workload.record_count;
    if (cfg_.workload.open_loop.enabled) {
      setup_open_loop();
    } else {
      for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
        if (!hosts_clients(d)) continue;
        for (int i = 0; i < cfg_.workload.clients_per_dc; ++i) {
          clients_.push_back(std::make_unique<workload::Client>(
              *this, static_cast<net::DcId>(d),
              cfg_.workload.target_rate_per_client,
              sim_.fork_rng(0xC11E017 + clients_.size()),
              cfg_.workload.reroute_on_dc_outage,
              cfg_.workload.shed_retry_limit));
        }
      }
      for (auto& c : clients_) c->start();
    }
    Tracer& tr = out_.tracer;
    policy_timer_.start(sim_, cfg_.policy_tick, [this, &tr] {
      const monitor::SystemState state = tr.span(
          tr.snapshot, [&] { return monitor_.snapshot(sim_.now()); });
      tr.span(tr.tick, [&] { policy_->tick(state); });
    });
    if (cfg_.warmup > 0) {
      sim_.schedule(cfg_.warmup, [this, &tr] {
        tr.span(tr.closure, [&] {
          warm_ns_ = wall_now_ns();
          begin_measurement();
        });
      });
    } else {
      begin_measurement();
    }
    // Clients and sources register the stock dispatchers as they start, so
    // the timed wrappers go in last.
    sim_.set_event_dispatcher(sim::EventDomain::kCluster,
                              &traced_cluster_dispatch);
    sim_.set_event_dispatcher(sim::EventDomain::kWorkload,
                              &traced_workload_dispatch);
    cluster_.oracle().set_trace_sink(&oracle_log_);

    const std::int64_t run0 = wall_now_ns();
    if (warm_ns_ == 0) warm_ns_ = run0;
    out_.preload_s = seconds_between(preload0, run0);
    const std::uint64_t tick0 = ticks();
    tr.span(tr.kernel, [&] {
      if (cfg_.workload.open_loop.enabled) {
        sim_.run_until(cfg_.workload.open_loop.duration +
                       cfg_.workload.open_loop.drain_grace);
      } else {
        sim_.run();
      }
    });
    const std::uint64_t tick1 = ticks();
    const std::int64_t run1 = wall_now_ns();
    cluster_.oracle().set_trace_sink(nullptr);
    out_.kernel_wall_s = seconds_between(run0, run1);
    tr.ticks_per_ns = run1 > run0 ? static_cast<double>(tick1 - tick0) /
                                        static_cast<double>(run1 - run0)
                                  : 1.0;
    out_.warmup_s = seconds_between(run0, warm_ns_);
    out_.measure_s = seconds_between(warm_ns_, run1);

    collect();
    out_.collect_s = seconds_between(run1, wall_now_ns());
    out_.replica_ops = cluster_.replica_ops();
    out_.live_stale = cluster_.oracle().stale_reads();
    out_.live_fresh = cluster_.oracle().fresh_reads();
    out_.reads_completed = reads_completed_;
    out_.writes_completed = writes_completed_;
  }

  // ---- ClientEnv -----------------------------------------------------------

  bool next_op(workload::Op& op) override {
    if (ops_issued_ >= cfg_.workload.op_count) return false;
    ++ops_issued_;
    const workload::WorkloadSpec& w = cfg_.workload;
    const double weights[4] = {w.read_proportion, w.update_proportion,
                               w.insert_proportion, w.rmw_proportion};
    switch (op_rng_.weighted_index(weights, 4)) {
      case 0: op.type = workload::OpType::kRead; break;
      case 1: op.type = workload::OpType::kUpdate; break;
      case 2: op.type = workload::OpType::kInsert; break;
      default: op.type = workload::OpType::kReadModifyWrite; break;
    }
    if (op.type == workload::OpType::kInsert) {
      op.key = next_insert_key_++;
      request_dist_->grow(next_insert_key_);
    } else {
      op.key = request_dist_->next(op_rng_);
    }
    op.value_size = w.value_size;
    return true;
  }

  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }

  void on_read_complete(const cluster::ReadResult& r, SimDuration latency,
                        int replicas_requested) override {
    ++ops_completed_;
    ++reads_completed_;
    if (!measuring_) return;
    RunResult& res = out_.result;
    ++res.reads;
    if (!r.ok) {
      ++res.errors;
      return;
    }
    res.read_latency.record(latency);
    ++res.read_level_usage[replicas_requested];
    if (r.stale) {
      ++res.stale_reads;
      res.staleness_age.record(r.staleness_age);
    } else {
      ++res.fresh_reads;
    }
  }

  void on_write_complete(const cluster::WriteResult& w,
                         SimDuration latency) override {
    ++ops_completed_;
    ++writes_completed_;
    if (!measuring_) return;
    RunResult& res = out_.result;
    ++res.writes;
    if (!w.ok) {
      ++res.errors;
    } else {
      res.write_latency.record(latency);
    }
  }

  void on_client_finished() override {
    ++clients_finished_;
    if (clients_finished_ == clients_.size() + sources_.size()) {
      policy_timer_.stop();
      finish_time_ = sim_.now();
    }
  }

 private:
  bool hosts_clients(std::size_t dc) const {
    return cfg_.workload.client_dc < 0 ||
           dc == static_cast<std::size_t>(cfg_.workload.client_dc);
  }

  void begin_measurement() {
    measuring_ = true;
    measure_start_ = sim_.now();
    ops_at_measure_start_ = ops_completed_;
    for (auto& s : sources_) s->set_measuring(true);
  }

  void setup_open_loop() {
    const workload::OpenLoopSpec& ol = cfg_.workload.open_loop;
    const std::size_t dcs = cfg_.cluster.dc_count;
    std::size_t active = 0;
    for (std::size_t d = 0; d < dcs; ++d) {
      if (hosts_clients(d)) ++active;
    }
    const ScrambledZipfianKeys users(ol.user_count, ol.user_zipf_theta);
    for (std::size_t d = 0; d < dcs; ++d) {
      if (!hosts_clients(d)) continue;
      sources_.push_back(std::make_unique<workload::OpenLoopSource>(
          *this, static_cast<net::DcId>(d), cfg_.workload,
          ol.rate_per_s / static_cast<double>(active),
          /*insert_lane=*/d, /*insert_stride=*/dcs,
          sim_.fork_rng(0x01E27007 + 0x9E37 * (d + 1)), request_dist_->clone(),
          users));
    }
    for (auto& s : sources_) s->start();
  }

  void collect() {
    RunResult& r = out_.result;
    r.label = cfg_.label;
    r.policy_name = policy_->name();
    r.ops = r.reads + r.writes;
    r.policy_switches = policy_->switches();

    const SimTime end = finish_time_ > 0 ? finish_time_ : sim_.now();
    r.total_wall_s = to_seconds(end);
    const SimTime measured_span = end - measure_start_;
    r.duration_s = to_seconds(measured_span > 0 ? measured_span : end);
    const std::uint64_t measured_ops = ops_completed_ - ops_at_measure_start_;
    r.throughput = r.duration_s > 0
                       ? static_cast<double>(measured_ops) / r.duration_s
                       : 0.0;
    const std::uint64_t judged = r.stale_reads + r.fresh_reads;
    r.stale_fraction = judged ? static_cast<double>(r.stale_reads) /
                                    static_cast<double>(judged)
                              : 0.0;
    double weighted = 0;
    std::uint64_t level_total = 0;
    for (const auto& [k, n] : r.read_level_usage) {
      weighted += static_cast<double>(k) * static_cast<double>(n);
      level_total += n;
    }
    r.avg_read_replicas =
        level_total ? weighted / static_cast<double>(level_total) : 0.0;

    const double wall_h = to_hours(end);
    r.usage.node_hours = wall_h * static_cast<double>(cfg_.cluster.node_count);
    r.usage.storage_gb_hours =
        static_cast<double>(cluster_.storage_bytes()) / 1e9 * wall_h;
    r.usage.io_requests = static_cast<std::uint64_t>(cluster_.disk_io());
    r.usage.cross_dc_gb =
        static_cast<double>(cluster_.net_stats().cross_dc_bytes()) / 1e9;
    r.usage.egress_gb = 0.0;
    r.energy_kwh = cfg_.power.energy_kwh(
        cfg_.cluster.node_count, end > 0 ? end : 1, cluster_.total_busy_time(),
        static_cast<double>(cluster_.net_stats().total_bytes()));
    r.usage.energy_kwh = r.energy_kwh;
    r.bill = cost::BillCalculator(cfg_.price_book).compute(r.usage);

    r.final_state = monitor_.snapshot(end > 0 ? end : sim_.now());
    r.net = cluster_.net_stats();
    r.timeouts = cluster_.timeouts();
    r.unavailable = cluster_.unavailable();
    r.read_repairs = cluster_.read_repairs_sent();
    r.sim_events = sim_.events_processed();
    r.sheds = cluster_.sheds();
    if (!sources_.empty()) {
      for (const auto& s : sources_) s->collect(r.open_loop);
    }
  }

  RunConfig cfg_;
  TracedRun& out_;
  sim::Simulation sim_;
  cluster::Cluster cluster_;
  TracedMonitor monitor_;
  Rng op_rng_;
  std::unique_ptr<KeyDistribution> request_dist_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::vector<std::unique_ptr<workload::OpenLoopSource>> sources_;
  sim::PeriodicTimer policy_timer_;
  OracleLog oracle_log_;

  std::uint64_t ops_issued_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t reads_completed_ = 0;
  std::uint64_t writes_completed_ = 0;
  std::uint64_t next_insert_key_ = 0;
  std::size_t clients_finished_ = 0;
  bool measuring_ = false;
  SimTime measure_start_ = 0;
  std::uint64_t ops_at_measure_start_ = 0;
  SimTime finish_time_ = 0;
  std::int64_t warm_ns_ = 0;
};

}  // namespace

TracedRun run_traced(const RunConfig& cfg) {
  if (cfg.num_shard_threads != 0 || !cfg.faults.empty() ||
      !cfg.fault_schedule.empty() || cfg.record_trace) {
    throw std::invalid_argument(
        "the traced assembly covers serial runs without faults or trace "
        "capture");
  }
  TracedRun out;
  PhaseMarks marks;
  g_tracer = &out.tracer;
  const std::int64_t t0 = wall_now_ns();
  auto run = std::make_unique<AssembledRun>(cfg, out, marks);
  out.construct_s = seconds_between(t0, wall_now_ns());
  run->run();
  out.wall_s = seconds_between(t0, wall_now_ns());
  run.reset();
  g_tracer = nullptr;
  for (const Tracer::Acc& a : out.tracer.kind) out.typed_events += a.calls;
  return out;
}

OracleReplay replay_oracle(const TracedRun& run) {
  cluster::StalenessOracle oracle;
  std::uint64_t mismatches = 0;
  const std::int64_t t0 = wall_now_ns();
  for (const OracleCall& c : run.oracle_calls) {
    switch (c.op) {
      case OracleCall::kCommit:
        oracle.record_commit(c.key, c.version, c.at);
        break;
      case OracleCall::kBeginRead:
        oracle.begin_read(c.at);
        break;
      case OracleCall::kEndRead:
        oracle.end_read(c.at);
        break;
      case OracleCall::kJudge: {
        const auto j = oracle.judge(c.key, c.version, c.at);
        mismatches += (j.stale != c.stale || j.age != c.age) ? 1 : 0;
        break;
      }
    }
  }
  const std::int64_t t1 = wall_now_ns();
  OracleReplay out;
  out.calls = run.oracle_calls.size();
  out.ns_per_call = out.calls ? static_cast<double>(t1 - t0) /
                                    static_cast<double>(out.calls)
                              : 0.0;
  out.ok = mismatches == 0 && oracle.stale_reads() == run.live_stale &&
           oracle.fresh_reads() == run.live_fresh;
  return out;
}

RingReplay replay_ring(const RunConfig& cfg,
                       const std::vector<cluster::Key>& keys) {
  sim::Simulation sim(cfg.seed);
  cluster::Cluster cluster(sim, cfg.cluster);
  RingReplay out;
  if (keys.empty()) return out;
  const auto n = static_cast<double>(keys.size());
  std::uint64_t sink = 0;

  std::int64_t t0 = wall_now_ns();
  for (const cluster::Key k : keys) sink += cluster.replicas_for(k)[0];
  out.lookup_ns = static_cast<double>(wall_now_ns() - t0) / n;

  cluster::DcCounts rf_per_dc;
  for (const int rf : cfg.cluster.rf_per_dc()) rf_per_dc.push_back(rf);
  cluster::ReplicaList replicas;
  const cluster::TokenRing& ring = cluster.ring();
  t0 = wall_now_ns();
  for (const cluster::Key k : keys) {
    if (cfg.cluster.use_nts) {
      ring.replicas_nts(k, rf_per_dc, replicas);
    } else {
      ring.replicas_simple(k, cfg.cluster.rf, replicas);
    }
    sink += replicas[0];
  }
  out.walk_ns = static_cast<double>(wall_now_ns() - t0) / n;
  keep(sink);
  return out;
}

double replay_keygen(const RunConfig& cfg, std::uint64_t n) {
  if (n == 0) return 0;
  const workload::WorkloadSpec& w = cfg.workload;
  auto keys = w.request_dist.build(w.record_count);
  std::unique_ptr<ScrambledZipfianKeys> users;
  if (w.open_loop.enabled) {
    users = std::make_unique<ScrambledZipfianKeys>(w.open_loop.user_count,
                                                   w.open_loop.user_zipf_theta);
  }
  Rng rng(cfg.seed ^ 0x6B657967656EULL);
  std::uint64_t sink = 0;
  const std::int64_t t0 = wall_now_ns();
  if (users != nullptr) {
    for (std::uint64_t i = 0; i < n; ++i) sink += users->next(rng) ^ keys->next(rng);
  } else {
    for (std::uint64_t i = 0; i < n; ++i) sink += keys->next(rng);
  }
  const double ns =
      static_cast<double>(wall_now_ns() - t0) / static_cast<double>(n);
  keep(sink);
  return ns;
}

}  // namespace perfbench
