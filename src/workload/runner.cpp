#include "workload/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "workload/client.h"

namespace harmony::workload {

namespace {

/// Owns every entity of one experiment and implements the client callbacks.
class Runner final : public ClientEnv {
 public:
  explicit Runner(const RunConfig& cfg)
      : cfg_(validated(cfg)),
        sim_(cfg.seed),
        cluster_(sim_, cfg.cluster),
        monitor_(cfg.monitor),
        op_rng_(sim_.fork_rng(0x0FAB5EED)),
        request_dist_(cfg.workload.request_dist.build(cfg.workload.record_count)) {
    monitor_.attach(cluster_, /*client_home_dc=*/0);
    policy::PolicyInit init;
    init.rf = cfg_.cluster.rf;
    init.local_rf = cfg_.cluster.local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    policy_ = cfg_.policy(init);
    HARMONY_CHECK_MSG(policy_ != nullptr, "policy factory returned null");
  }

  RunResult run() {
    cluster_.preload_range(cfg_.workload.record_count, cfg_.workload.value_size);
    next_insert_key_ = cfg_.workload.record_count;
    if (cfg_.record_trace) r_.trace = std::make_shared<Trace>();

    if (cfg_.workload.open_loop.enabled) {
      setup_open_loop();
    } else {
      // Clients, spread over every DC (or confined to one via client_dc).
      for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
        if (!hosts_clients(d)) continue;
        for (int i = 0; i < cfg_.workload.clients_per_dc; ++i) {
          clients_.push_back(std::make_unique<Client>(
              *this, static_cast<net::DcId>(d),
              cfg_.workload.target_rate_per_client,
              sim_.fork_rng(0xC11E017 + clients_.size()),
              cfg_.workload.reroute_on_dc_outage,
              cfg_.workload.shed_retry_limit));
        }
      }
      for (auto& c : clients_) c->start();
    }

    // Scheduled failure injection, all on the typed lane: the legacy
    // kill/revive list lowered to FaultSpecs, then the full fault schedule
    // (blackouts, degradation windows, ...).
    for (const auto& fault : cfg_.faults) {
      cluster_.schedule_fault(cluster::FaultSpec{
          fault.at,
          fault.kill ? cluster::FaultOp::kKillNode
                     : cluster::FaultOp::kReviveNode,
          fault.node});
    }
    for (const auto& fault : cfg_.fault_schedule) {
      cluster_.schedule_fault(fault);
    }

    // Policy retuning tick; on_client_finished() cancels it the moment the
    // budget drains, so the queue can empty.
    policy_timer_.start(sim_, cfg_.policy_tick, [this] {
      policy_->tick(monitor_.snapshot(sim_.now()));
    });

    // Warm-up boundary: reset measurements, keep billing clocks running.
    if (cfg_.warmup > 0) {
      sim_.schedule(cfg_.warmup, [this] { begin_measurement(); });
    } else {
      begin_measurement();
    }

    if (cfg_.workload.open_loop.enabled) {
      // Open-loop runs are time-bounded: generation stops at `duration`,
      // in-flight work gets `drain_grace` to land, and whatever is still
      // queued or in flight at the horizon stays in the ledger as an
      // explicit remainder instead of extending the run.
      sim_.run_until(cfg_.workload.open_loop.duration +
                     cfg_.workload.open_loop.drain_grace);
    } else {
      sim_.run();
    }
    return collect();
  }

  // ---- ClientEnv -----------------------------------------------------------

  /// The shared closed-loop op stream: inserts take fresh keys past the
  /// preloaded records, everything else draws from the request distribution.
  bool next_op(Op& op) override {
    if (ops_issued_ >= cfg_.workload.op_count) return false;
    ++ops_issued_;
    const WorkloadSpec& w = cfg_.workload;
    const double weights[4] = {w.read_proportion, w.update_proportion,
                               w.insert_proportion, w.rmw_proportion};
    switch (op_rng_.weighted_index(weights, 4)) {
      case 0: op.type = OpType::kRead; break;
      case 1: op.type = OpType::kUpdate; break;
      case 2: op.type = OpType::kInsert; break;
      default: op.type = OpType::kReadModifyWrite; break;
    }
    if (op.type == OpType::kInsert) {
      op.key = next_insert_key_++;
      request_dist_->grow(next_insert_key_);
    } else {
      op.key = request_dist_->next(op_rng_);
    }
    op.value_size = w.value_size;
    if (r_.trace) {
      r_.trace->records.push_back(
          TraceRecord{sim_.now(), op.type, op.key, op.value_size});
    }
    return true;
  }

  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }

  void on_read_complete(const cluster::ReadResult& r, SimDuration latency,
                        int replicas_requested) override {
    ++ops_completed_;
    if (!measuring_) return;
    ++r_.reads;
    if (!r.ok) {
      ++r_.errors;
      return;
    }
    r_.read_latency.record(latency);
    ++r_.read_level_usage[replicas_requested];
    if (r.stale) {
      ++r_.stale_reads;
      r_.staleness_age.record(r.staleness_age);
    } else {
      ++r_.fresh_reads;
    }
  }

  void on_write_complete(const cluster::WriteResult& w,
                         SimDuration latency) override {
    ++ops_completed_;
    if (!measuring_) return;
    ++r_.writes;
    if (!w.ok) {
      ++r_.errors;
    } else {
      r_.write_latency.record(latency);
    }
  }

  void on_client_finished() override {
    if (++clients_finished_ != clients_.size() + sources_.size()) return;
    finish_time_ = sim_.now();
    policy_timer_.stop();
  }

 private:
  /// Every configuration check that needs no simulation state runs here, in
  /// the member-init list, before anything is built or preloaded.
  static const RunConfig& validated(const RunConfig& cfg) {
    cfg.workload.validate();
    validate_placement(cfg.cluster);
    HARMONY_CHECK_MSG(
        cfg.workload.client_dc < static_cast<int>(cfg.cluster.dc_count),
        "client_dc out of range");
    HARMONY_CHECK_MSG(
        !cfg.workload.open_loop.enabled ||
            cfg.warmup < cfg.workload.open_loop.duration,
        "open-loop warmup must end before generation stops");
    validate_faults(cfg);
    return cfg;
  }

  /// The ring and placement knobs, checked before the cluster builds its
  /// ring and per-arc placement table (whose own checks name no knob).
  static void validate_placement(const cluster::ClusterConfig& c) {
    HARMONY_CHECK_MSG(
        c.dc_count >= 1 &&
            c.dc_count <= std::min(cluster::kMaxDcs, c.node_count),
        "cluster.dc_count = " + std::to_string(c.dc_count) +
            " must be in [1, min(kMaxDcs = " +
            std::to_string(cluster::kMaxDcs) + ", cluster.node_count = " +
            std::to_string(c.node_count) + ")]");
    HARMONY_CHECK_MSG(c.vnodes_per_node >= 1,
                      "cluster.vnodes_per_node = " +
                          std::to_string(c.vnodes_per_node) + " must be >= 1");
    if (c.use_nts) {
      // Topology::balanced deals node i to DC i % dc_count. Checked before
      // the total below, so an NTS rf past node_count names the short DC.
      const std::vector<int> split = c.rf_per_dc();
      for (std::size_t d = 0; d < split.size(); ++d) {
        const std::size_t dc_nodes =
            c.node_count / c.dc_count + (d < c.node_count % c.dc_count ? 1 : 0);
        HARMONY_CHECK_MSG(
            split[d] <= static_cast<int>(dc_nodes),
            "cluster.rf = " + std::to_string(c.rf) +
                " split over cluster.dc_count DCs (use_nts) puts " +
                std::to_string(split[d]) + " replicas in DC " +
                std::to_string(d) + ", which has " + std::to_string(dc_nodes) +
                " nodes");
      }
    }
    HARMONY_CHECK_MSG(
        c.rf >= 1 && static_cast<std::size_t>(c.rf) <= c.node_count &&
            c.rf <= cluster::kMaxReplicas,
        "cluster.rf = " + std::to_string(c.rf) +
            " must be in [1, min(cluster.node_count = " +
            std::to_string(c.node_count) + ", kMaxReplicas = " +
            std::to_string(cluster::kMaxReplicas) + ")]");
  }

  /// Every fault entry, checked before anything is scheduled: a bad one
  /// would otherwise fail at its fault instant (or not at all, for a
  /// non-positive degrade factor).
  static void validate_faults(const RunConfig& cfg) {
    const cluster::ClusterConfig& c = cfg.cluster;
    const auto check_at = [](const std::string& name, SimTime at) {
      HARMONY_CHECK_MSG(at >= 0, name + ".at = " + std::to_string(at) +
                                     " must be >= 0");
    };
    const auto check_node = [&c](const std::string& name, net::NodeId node) {
      HARMONY_CHECK_MSG(node < c.node_count,
                        name + ".node = " + std::to_string(node) +
                            " must be < cluster.node_count = " +
                            std::to_string(c.node_count));
    };
    for (std::size_t i = 0; i < cfg.faults.size(); ++i) {
      const std::string name = "faults[" + std::to_string(i) + "]";
      check_at(name, cfg.faults[i].at);
      check_node(name, cfg.faults[i].node);
    }
    for (std::size_t i = 0; i < cfg.fault_schedule.size(); ++i) {
      const cluster::FaultSpec& f = cfg.fault_schedule[i];
      const std::string name = "fault_schedule[" + std::to_string(i) + "]";
      check_at(name, f.at);
      switch (f.op) {
        case cluster::FaultOp::kDcBlackout:
        case cluster::FaultOp::kDcRestore:
          HARMONY_CHECK_MSG(f.dc < c.dc_count,
                            name + ".dc = " + std::to_string(f.dc) +
                                " must be < cluster.dc_count = " +
                                std::to_string(c.dc_count));
          break;
        case cluster::FaultOp::kDegradeWan:
        case cluster::FaultOp::kRestoreWan:
          break;
        default:
          check_node(name, f.node);
      }
      if (f.op == cluster::FaultOp::kDegradeNode ||
          f.op == cluster::FaultOp::kDegradeWan) {
        HARMONY_CHECK_MSG(std::isfinite(f.factor) && f.factor > 0,
                          name + ".factor = " + std::to_string(f.factor) +
                              " must be finite and > 0");
      }
    }
  }

  bool hosts_clients(std::size_t dc) const {
    return cfg_.workload.client_dc < 0 ||
           dc == static_cast<std::size_t>(cfg_.workload.client_dc);
  }

  void begin_measurement() {
    measuring_ = true;
    ops_at_measure_start_ = ops_completed_;
    for (auto& src : sources_) src->set_measuring(true);
  }

  /// One OpenLoopSource per client-hosting DC in place of the closed-loop
  /// clients; each gets an equal share of the aggregate arrival rate, its
  /// own RNG fork, a clone of the shared request distribution, and an
  /// interleaved insert-key lane (see workload/open_loop.h). The DC number
  /// picks the RNG fork and insert lane.
  void setup_open_loop() {
    const OpenLoopSpec& ol = cfg_.workload.open_loop;
    const std::size_t dcs = cfg_.cluster.dc_count;
    std::size_t active = 0;
    for (std::size_t d = 0; d < dcs; ++d) {
      if (hosts_clients(d)) ++active;
    }
    HARMONY_CHECK(active > 0);
    // One shared zeta computation for the million-user population; every
    // source copies the finished constants instead of re-summing O(users).
    const ScrambledZipfianKeys users(ol.user_count, ol.user_zipf_theta);
    for (std::size_t d = 0; d < dcs; ++d) {
      if (!hosts_clients(d)) continue;
      sources_.push_back(std::make_unique<OpenLoopSource>(
          *this, static_cast<net::DcId>(d), cfg_.workload,
          ol.rate_per_s / static_cast<double>(active),
          /*insert_lane=*/d, /*insert_stride=*/dcs,
          sim_.fork_rng(0x01E27007 + 0x9E37 * (d + 1)), request_dist_->clone(),
          users));
    }
    for (auto& s : sources_) s->start();
  }

  RunResult collect() {
    RunResult r = std::move(r_);
    r.label = cfg_.label;
    r.policy_name = policy_->name();
    r.ops = r.reads + r.writes;
    r.policy_switches = policy_->switches();

    const SimTime end = finish_time_ > 0 ? finish_time_ : sim_.now();
    r.total_wall_s = to_seconds(end);
    const SimTime measured_span = end - cfg_.warmup;
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

    // ---- whole-run resource usage and bill --------------------------------
    const double wall_h = to_hours(end);
    r.usage.node_hours = wall_h * static_cast<double>(cfg_.cluster.node_count);
    r.usage.storage_gb_hours =
        static_cast<double>(cluster_.storage_bytes()) / 1e9 * wall_h;
    r.usage.io_requests = static_cast<std::uint64_t>(cluster_.disk_io());
    r.usage.cross_dc_gb =
        static_cast<double>(cluster_.net_stats().cross_dc_bytes()) / 1e9;
    r.usage.egress_gb = 0.0;  // clients are in-region
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
    r.retries = cluster_.retries();
    r.hedges_fired = cluster_.hedges_fired();
    r.hedge_wins = cluster_.hedge_wins();
    r.sheds = cluster_.sheds();
    if (!sources_.empty()) {
      for (const auto& s : sources_) s->collect(r.open_loop);
      OpenLoopResult& ol = r.open_loop;
      ol.sla_attainment =
          ol.sla_total ? static_cast<double>(ol.sla_ok) /
                             static_cast<double>(ol.sla_total)
                       : 0.0;
      const double gen_s = to_seconds(cfg_.workload.open_loop.duration);
      ol.offered_rate =
          gen_s > 0 ? static_cast<double>(ol.arrivals) / gen_s : 0.0;
    }
    for (const auto& c : clients_) {
      r.client_shed_retries += c->shed_retries();
      r.rerouted_ops += c->rerouted_ops();
    }
    return r;
  }

  RunConfig cfg_;
  sim::Simulation sim_;
  cluster::Cluster cluster_;
  monitor::Monitor monitor_;
  Rng op_rng_;
  std::unique_ptr<KeyDistribution> request_dist_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<OpenLoopSource>> sources_;
  sim::PeriodicTimer policy_timer_;

  /// Measured (post-warmup) tallies and the trace; collect() completes it.
  RunResult r_;
  std::uint64_t ops_issued_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t ops_at_measure_start_ = 0;
  std::uint64_t next_insert_key_ = 0;
  std::size_t clients_finished_ = 0;
  bool measuring_ = false;
  SimTime finish_time_ = 0;
};

}  // namespace

RunResult run_experiment(const RunConfig& cfg) {
  HARMONY_CHECK_MSG(cfg.policy != nullptr, "RunConfig.policy is required");
  Runner runner(cfg);
  return runner.run();
}

std::string RunResult::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s[%s]: %.0f ops/s, read p50=%s, stale=%.1f%%, avg_k=%.2f, "
                "bill=$%.4f",
                label.c_str(), policy_name.c_str(), throughput,
                format_duration(read_latency.median()).c_str(),
                stale_fraction * 100.0, avg_read_replicas, bill.total());
  return buf;
}

}  // namespace harmony::workload
