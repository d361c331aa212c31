#include "workload/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "workload/client.h"
#include "workload/key_owner.h"

namespace harmony::workload {

namespace {

/// Owns every entity of one experiment and implements the client callbacks.
///
/// All workload state lives in per-event-shard lanes (LaneState): a serial
/// run is simply one lane, so the op stream, completion tallies, warm-up flip
/// and collect merge have one implementation whatever the shard count.
class Runner final : public ClientEnv {
 public:
  explicit Runner(const RunConfig& cfg)
      : cfg_(validated(cfg)),
        sim_(cfg.seed),
        cluster_(shard_configured(sim_, cfg), sized_cluster_config(cfg)),
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
    init_lanes();

    if (cfg_.workload.open_loop.enabled) {
      setup_open_loop();
    } else {
      // Clients, spread over every DC (or confined to one via client_dc).
      // Under key-range sharding each client is further homed on one shard
      // of its DC (round-robin over the DC's shard range), where its whole
      // closed loop — and every key it touches — lives.
      for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
        if (!hosts_clients(d)) continue;
        const auto lanes = lanes_of(d);
        for (int i = 0; i < cfg_.workload.clients_per_dc; ++i) {
          const auto shard = static_cast<std::uint8_t>(
              lanes.first + static_cast<std::uint32_t>(i) % lanes.count);
          clients_.push_back(std::make_unique<Client>(
              *this, static_cast<net::DcId>(d),
              cfg_.workload.target_rate_per_client,
              sim_.fork_rng(0xC11E017 + clients_.size()),
              cfg_.workload.reroute_on_dc_outage,
              cfg_.workload.shed_retry_limit, shard));
          ++lane_[shard].clients;
        }
      }
      for (auto& c : clients_) {
        // Sharded: the start stagger (and every event it transitively books)
        // belongs to the client's shard.
        sim_.set_setup_shard(c->shard());
        c->start();
      }
      sim_.set_setup_shard(0);
    }

    // Scheduled failure injection, all on the typed lane: the legacy
    // kill/revive list lowered to FaultSpecs, then the full fault schedule
    // (blackouts, degradation windows, ...). Under sharding every fault
    // instant is a fence (merged-serial).
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

    // Policy retuning tick. One lane runs it on a periodic timer that
    // on_client_finished() cancels the moment the budget drains. With
    // several lanes the tick reads the monitor and mutates the policy, both
    // cross-shard singletons, so each tick lands on a fenced instant
    // (merged-serial, after the barrier flush applied every monitor op dated
    // before it) and on_policy_tick() stops re-arming once every lane drains.
    if (lane_.size() == 1) {
      policy_timer_.start(sim_, cfg_.policy_tick, [this] {
        policy_->tick(monitor_.snapshot(sim_.now()));
      });
    } else if (cfg_.policy_tick > 0) {
      arm_policy_tick(cfg_.policy_tick);
    }

    // Warm-up boundary: reset measurements, keep billing clocks running.
    // One boundary event per lane, each flipping only that lane's measuring
    // state — the flip lands at the same (time, seq) point of the merge for
    // every thread count.
    for (std::uint32_t s = 0; s < lane_.size(); ++s) {
      if (cfg_.warmup > 0) {
        sim_.set_setup_shard(s);
        sim_.schedule(cfg_.warmup, [this, s] { begin_measurement(s); });
      } else {
        begin_measurement(s);
      }
    }
    sim_.set_setup_shard(0);

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

  /// The calling client's lane op stream: each lane owns an equal slice of
  /// the op budget, its own RNG and key distribution clone, and an
  /// interleaved insert-key lane (record_count + lane + n*lane_count) so
  /// lanes never contend for a key counter. Under key-range sharding the
  /// lane keeps only keys its shard owns (see workload/key_owner.h). Runs on
  /// the calling client's shard thread; touches only that shard's LaneState.
  bool next_op(Op& op) override {
    const std::uint32_t shard = sim_.current_shard();
    LaneState& s = lane_[shard];
    if (s.ops_issued >= s.ops_budget) return false;
    ++s.ops_issued;
    const WorkloadSpec& w = cfg_.workload;
    const double weights[4] = {w.read_proportion, w.update_proportion,
                               w.insert_proportion, w.rmw_proportion};
    switch (s.op_rng.weighted_index(weights, 4)) {
      case 0: op.type = OpType::kRead; break;
      case 1: op.type = OpType::kUpdate; break;
      case 2: op.type = OpType::kInsert; break;
      default: op.type = OpType::kReadModifyWrite; break;
    }
    const KeyOwner owner(cluster_, s.dc, shard);
    if (op.type == OpType::kInsert) {
      op.key = owner.next_insert(w.record_count + shard, lane_.size(),
                                 s.next_insert_seq);
      s.request_dist->grow(op.key + 1);
    } else {
      op.key = owner.draw([&s] { return s.request_dist->next(s.op_rng); });
    }
    op.value_size = w.value_size;
    if (cfg_.record_trace) {
      // Per-lane (time, seq)-stamped buffer; collect() stitches the lanes
      // into the global issue order.
      s.trace.push_back(StampedTrace{
          sim_.current_seq(),
          TraceRecord{sim_.now(), op.type, op.key, op.value_size}});
    }
    return true;
  }

  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }

  void on_read_complete(const cluster::ReadResult& r, SimDuration latency,
                        int replicas_requested) override {
    LaneState& s = lane_[sim_.current_shard()];
    ++s.ops_completed;
    if (!s.measuring) return;
    ++s.reads;
    if (!r.ok) {
      ++s.errors;
      return;
    }
    s.read_latency.record(latency);
    ++s.read_level_usage[replicas_requested];
    // r.stale is never set under shard_count > 1 (the deferred oracle judges
    // at window barriers); collect() reads the oracle's aggregates instead.
    if (r.stale) {
      ++s.stale_reads;
      s.staleness_age.record(r.staleness_age);
    } else {
      ++s.fresh_reads;
    }
  }

  void on_write_complete(const cluster::WriteResult& w,
                         SimDuration latency) override {
    LaneState& s = lane_[sim_.current_shard()];
    ++s.ops_completed;
    if (!s.measuring) return;
    ++s.writes;
    if (!w.ok) {
      ++s.errors;
    } else {
      s.write_latency.record(latency);
    }
  }

  void on_client_finished() override {
    LaneState& s = lane_[sim_.current_shard()];
    if (++s.clients_finished != s.clients) return;
    s.finish_time = sim_.now();
    // One lane: the budget drained, so stop the retuning timer and let the
    // queue empty. Several lanes stop at the next fenced tick instead.
    if (lane_.size() == 1) policy_timer_.stop();
  }

  /// Fenced policy tick (several lanes; see EventKind::kPolicyTick). Runs
  /// merged-serial at a fence instant, after the window flush applied every
  /// per-shard monitor op dated before it — so the snapshot the policy sees
  /// is identical for every thread count. Stops when every lane's clients
  /// have drained their budget, mirroring the single-lane PeriodicTimer
  /// stop: the already-armed tick acts cancelled (no tick, no re-arm). The
  /// stop must key off client state, not sim_.idle() — another
  /// self-re-arming fence source (anti-entropy) would keep the queue
  /// non-idle forever and the two would hold each other live.
  void on_policy_tick() override {
    bool running = false;
    for (const LaneState& s : lane_) running |= s.clients_finished < s.clients;
    if (!running) return;
    policy_->tick(monitor_.snapshot(sim_.now()));
    arm_policy_tick(sim_.now() + cfg_.policy_tick);
  }

 private:
  /// One issued-op trace record plus the event seq that stamps its position
  /// in the global (time, seq) order (record_trace).
  struct StampedTrace {
    std::uint64_t seq = 0;
    TraceRecord rec{};
  };

  /// Per-event-shard workload state ("lane"): everything a client callback
  /// mutates lives here, indexed by the executing shard, so workers never
  /// share a cache line let alone a counter. A one-shard run has one lane
  /// that serves every DC; otherwise each DC owns a contiguous lane range
  /// (ShardMap::dc_range), one lane per DC when shards_per_dc == 1. Padded
  /// to a line for the adjacent-element case.
  struct alignas(64) LaneState {
    Rng op_rng;
    std::unique_ptr<KeyDistribution> request_dist;
    /// Owning DC of this shard lane (key ownership; unused by a serial run,
    /// where every key is owned).
    net::DcId dc = 0;
    /// record_trace: this lane's issued ops, stamped for the collect-time
    /// stitch.
    std::vector<StampedTrace> trace;
    std::uint64_t ops_budget = 0;
    std::uint64_t ops_issued = 0;
    std::uint64_t ops_completed = 0;
    std::uint64_t next_insert_seq = 0;
    std::size_t clients = 0;
    std::size_t clients_finished = 0;
    bool measuring = false;
    std::uint64_t ops_at_measure_start = 0;
    SimTime finish_time = 0;
    // Measured (post-warmup) tallies, merged by collect().
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t errors = 0;
    std::uint64_t stale_reads = 0;
    std::uint64_t fresh_reads = 0;
    LatencyHistogram read_latency;
    LatencyHistogram write_latency;
    LatencyHistogram staleness_age;
    std::map<int, std::uint64_t> read_level_usage;
  };

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
    if (cfg.num_shard_threads > 0) {
      HARMONY_CHECK_MSG(cfg.shards_per_dc >= 1,
                        "shards_per_dc must be >= 1 when num_shard_threads > 0");
      HARMONY_CHECK_MSG(
          cfg.cluster.dc_count * cfg.shards_per_dc <= 255,
          "dc_count * shards_per_dc must be <= 255 (event shard ids are one "
          "byte)");
      const std::uint32_t shards = shard_count(cfg);
      // The remaining cross-shard restriction; RunConfig::num_shard_threads
      // documents the full list of sharded semantic deltas.
      HARMONY_CHECK_MSG(shards == 1 || !cfg.workload.reroute_on_dc_outage,
                        "workload.reroute_on_dc_outage sends requests to a "
                        "foreign shard's coordinator; it needs "
                        "dc_count * shards_per_dc == 1 when num_shard_threads "
                        "> 0");
      HARMONY_CHECK_MSG(
          cluster::ShardMap::lookahead(cfg.cluster.latency,
                                       cfg.cluster.dc_count, shards) > 0,
          "sharded runs take their conservative lookahead from the latency "
          "floors of every hop class that crosses shards: set "
          "cluster.latency.cross_dc.floor > 0 with several DCs, and "
          "same_rack/same_dc floors > 0 with shards_per_dc > 1");
    }
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

  /// Event shards of a run: one unless num_shard_threads > 0, then
  /// shards_per_dc per DC.
  static std::uint32_t shard_count(const RunConfig& cfg) {
    if (cfg.num_shard_threads == 0) return 1;
    return static_cast<std::uint32_t>(cfg.cluster.dc_count * cfg.shards_per_dc);
  }

  /// Sharded slot pools never grow mid-window, so their reserve must cover
  /// the worst-case in-flight population. The open-loop engine states that
  /// bound explicitly (max_in_flight_per_dc, one coordinator slot per op,
  /// doubled for hedge/repair legs); closed-loop runs keep the default.
  static cluster::ClusterConfig sized_cluster_config(const RunConfig& cfg) {
    cluster::ClusterConfig c = cfg.cluster;
    if (cfg.num_shard_threads > 0 && cfg.workload.open_loop.enabled) {
      const std::uint64_t want =
          2ull * cfg.workload.open_loop.max_in_flight_per_dc;
      if (want > c.sharded_slot_reserve) {
        c.sharded_slot_reserve = static_cast<std::uint32_t>(want);
      }
    }
    return c;
  }

  /// Runs in the constructor's member-init list: shards must be configured
  /// after the Simulation exists but before the Cluster (or anything else)
  /// schedules its first event.
  static sim::Simulation& shard_configured(sim::Simulation& sim,
                                           const RunConfig& cfg) {
    if (cfg.num_shard_threads > 0) {
      const std::uint32_t shards = shard_count(cfg);
      sim.configure_shards(
          shards,
          cluster::ShardMap::lookahead(cfg.cluster.latency,
                                       cfg.cluster.dc_count, shards),
          cfg.num_shard_threads);
    }
    return sim;
  }

  bool hosts_clients(std::size_t dc) const {
    return cfg_.workload.client_dc < 0 ||
           dc == static_cast<std::size_t>(cfg_.workload.client_dc);
  }

  /// The contiguous lane (event shard) range DC `d`'s workload runs on: its
  /// key-range shards, or lane 0 with one shard.
  cluster::ShardMap::Range lanes_of(std::size_t d) const {
    return cluster_.shard_map().dc_range(static_cast<net::DcId>(d));
  }

  void init_lanes() {
    const std::size_t n = sim_.shard_count();
    lane_ = std::vector<LaneState>(n);
    std::vector<bool> hosting(n, false);
    for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
      const auto lanes = lanes_of(d);
      for (std::uint32_t s = lanes.first; s < lanes.first + lanes.count; ++s) {
        lane_[s].dc = static_cast<net::DcId>(d);
        if (hosts_clients(d)) hosting[s] = true;
      }
    }
    // Equal split of the op budget over the client-hosting lanes; the
    // remainder goes to the lowest lane ids so totals match op_count
    // exactly.
    const auto active = static_cast<std::uint64_t>(
        std::count(hosting.begin(), hosting.end(), true));
    std::uint64_t handed = 0;
    for (std::size_t s = 0; s < n; ++s) {
      LaneState& lane = lane_[s];
      // A single lane adopts op_rng_; several lanes fork their own streams
      // after it.
      lane.op_rng = n == 1 ? std::move(op_rng_)
                           : sim_.fork_rng(0x0FAB5EED + 0x9E37 * (s + 1));
      // Clone the already-built distribution instead of rebuilding: build()
      // re-runs the O(record_count) zeta harmonic sums per lane, clone()
      // just copies the finished constants (identical state either way).
      lane.request_dist = request_dist_->clone();
      if (hosting[s]) {
        lane.ops_budget = cfg_.workload.op_count / active +
                          (handed < cfg_.workload.op_count % active ? 1 : 0);
        ++handed;
      }
    }
  }

  /// Register the fence and schedule the typed tick event for the next
  /// policy retuning instant (several lanes; always called from setup or
  /// from inside a fenced instant, never mid-window).
  void arm_policy_tick(SimTime at) {
    sim_.register_fence(at);
    sim::TypedEvent ev;
    ev.kind = sim::EventKind::kPolicyTick;
    ev.target = static_cast<ClientEnv*>(this);
    sim_.schedule_event_at(at, ev);
  }

  /// Warm-up boundary of lane `s` (runs on that lane's shard).
  void begin_measurement(std::uint32_t s) {
    LaneState& lane = lane_[s];
    lane.measuring = true;
    lane.ops_at_measure_start = lane.ops_completed;
    for (auto& src : sources_) {
      if (src->shard() == s) src->set_measuring(true);
    }
  }

  /// One OpenLoopSource per lane of each client-hosting DC (one per DC when
  /// serial or per-DC sharded) in place of the closed-loop clients; each
  /// gets an equal share of the aggregate arrival rate (DC share split over
  /// the DC's lanes), its own RNG fork, a clone of the shared request
  /// distribution, and an interleaved insert-key lane (see
  /// workload/open_loop.h). Sources are numbered over every (DC, lane)
  /// pair, hosting or not; that number picks the RNG fork and insert lane.
  void setup_open_loop() {
    const OpenLoopSpec& ol = cfg_.workload.open_loop;
    const std::size_t dcs = cfg_.cluster.dc_count;
    std::size_t active = 0;
    std::uint64_t slots = 0;
    for (std::size_t d = 0; d < dcs; ++d) {
      if (hosts_clients(d)) ++active;
      slots += lanes_of(d).count;
    }
    HARMONY_CHECK(active > 0);
    // One shared zeta computation for the million-user population; every
    // source copies the finished constants instead of re-summing O(users).
    const ScrambledZipfianKeys users(ol.user_count, ol.user_zipf_theta);
    std::uint64_t slot = 0;
    for (std::size_t d = 0; d < dcs; ++d) {
      const auto lanes = lanes_of(d);
      for (std::uint32_t k = 0; k < lanes.count; ++k, ++slot) {
        if (!hosts_clients(d)) continue;
        const std::uint32_t shard = lanes.first + k;
        sources_.push_back(std::make_unique<OpenLoopSource>(
            *this, static_cast<net::DcId>(d), cfg_.workload,
            ol.rate_per_s / static_cast<double>(active) /
                static_cast<double>(lanes.count),
            /*insert_lane=*/slot, /*insert_stride=*/slots,
            sim_.fork_rng(0x01E27007 + 0x9E37 * (slot + 1)),
            request_dist_->clone(), users, static_cast<std::uint8_t>(shard)));
        ++lane_[shard].clients;
      }
    }
    for (auto& s : sources_) {
      sim_.set_setup_shard(s->shard());
      s->start();
    }
    sim_.set_setup_shard(0);
  }

  RunResult collect() {
    RunResult r;
    // Merge the lane tallies; every shard is quiescent here (the run loop
    // joined its workers before returning).
    std::uint64_t completed = 0;
    std::uint64_t at_measure_start = 0;
    SimTime finish_time = 0;
    for (LaneState& s : lane_) {
      r.reads += s.reads;
      r.writes += s.writes;
      r.errors += s.errors;
      r.stale_reads += s.stale_reads;
      r.fresh_reads += s.fresh_reads;
      r.read_latency.merge(s.read_latency);
      r.write_latency.merge(s.write_latency);
      r.staleness_age.merge(s.staleness_age);
      for (const auto& [k, n] : s.read_level_usage) {
        r.read_level_usage[k] += n;
      }
      completed += s.ops_completed;
      at_measure_start += s.ops_at_measure_start;
      finish_time = std::max(finish_time, s.finish_time);
    }
    if (lane_.size() > 1) {
      // Per-read judgements are deferred past the client callback under
      // sharding; the oracle's whole-run aggregates are exact.
      r.stale_reads = cluster_.oracle().stale_reads();
      r.fresh_reads = cluster_.oracle().fresh_reads();
      r.staleness_age = cluster_.oracle().staleness_age();
    }
    if (cfg_.record_trace) {
      // Stitch the lane trace buffers into the global issue order: each lane
      // is already (time, seq)-sorted by construction and seqs are unique
      // across lanes, so one sort of the concatenation reproduces the merged
      // stream byte-for-byte for every thread count.
      r.trace = std::make_shared<Trace>();
      std::vector<StampedTrace> all;
      for (LaneState& s : lane_) {
        all.insert(all.end(), s.trace.begin(), s.trace.end());
      }
      std::sort(all.begin(), all.end(),
                [](const StampedTrace& a, const StampedTrace& b) {
                  return a.rec.time != b.rec.time ? a.rec.time < b.rec.time
                                                  : a.seq < b.seq;
                });
      r.trace->records.reserve(all.size());
      for (const StampedTrace& t : all) r.trace->records.push_back(t.rec);
    }
    r.label = cfg_.label;
    r.policy_name = policy_->name();
    r.ops = r.reads + r.writes;
    r.policy_switches = policy_->switches();

    const SimTime end = finish_time > 0 ? finish_time : sim_.now();
    r.total_wall_s = to_seconds(end);
    const SimTime measured_span = end - cfg_.warmup;
    r.duration_s = to_seconds(measured_span > 0 ? measured_span : end);
    const std::uint64_t measured_ops = completed - at_measure_start;
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
    r.mailbox_spills = sim_.mailbox_spills();
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
  /// The op stream RNG of a single lane (init_lanes); forked here so its
  /// master-stream position is the same whatever the lane count.
  Rng op_rng_;
  std::unique_ptr<KeyDistribution> request_dist_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<OpenLoopSource>> sources_;
  sim::PeriodicTimer policy_timer_;
  std::vector<LaneState> lane_;
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
