// The replicated key-value store: a Cassandra-style cluster simulated on the
// discrete-event kernel.
//
// Faithful mechanisms (the ones the paper's results depend on):
//   * coordinator-per-request: clients contact a node in their own DC, which
//     fans out to replicas chosen by the token ring;
//   * writes always go to ALL replicas; the consistency level only decides how
//     many acks the client waits for — the remainder propagate asynchronously,
//     opening the stale-read window of Fig. 1;
//   * reads contact exactly `required` replicas (one data read + digests) and
//     return the newest version among responses (timestamp LWW);
//   * read repair (contacted-set always; whole-replica-set with a configured
//     chance), hinted handoff for writes to down nodes, request timeouts;
//   * node service queues, so load inflates propagation delay and staleness.
//
// Resilience layer (all knobs default off; the off path is byte-identical to
// the pre-resilience cluster):
//   * hedged reads — after a quantile-derived hedge delay the coordinator
//     issues one backup data read to the next snitch-ranked untried replica
//     and the first `needed` responses win (Cassandra's rapid read
//     protection / Envoy's request hedging). Late legs are suppressed by the
//     existing slot-pool generation checks.
//   * coordinator read retry — an attempt timeout retries against replicas
//     excluding every previously-tried host, ranked same-rack -> same-DC ->
//     cross-DC (Envoy's retry host-reselection predicate plus a snitch-class
//     preference), with exponential backoff on the cancellable closure lane.
//     Writes never retry: a write already fans out to ALL replicas, so the
//     untried-host set is empty by construction — hinted handoff and read
//     repair are the write path's resilience mechanisms.
//   * per-DC token-bucket admission control — requests are shed (with
//     retry-after) or delayed at the coordinator before any replica work.
//   * scripted fault injection — FaultSpec actions (node kill/revive,
//     whole-DC blackout, per-node / WAN latency degradation windows) ride
//     the typed event lane, so every fault scenario is seed-reproducible.
//
// Every request-path mutation runs on the owning Simulation's one event
// queue; the staleness oracle and the attached observer are called at once,
// in event order (docs/INVARIANTS.md "One-queue determinism").
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/consistency.h"
#include "cluster/hinted_handoff.h"
#include "cluster/node.h"
#include "cluster/staleness_oracle.h"
#include "cluster/token_ring.h"
#include "cluster/versioned_value.h"
#include "common/histogram.h"
#include "common/inline_fn.h"
#include "common/slot_pool.h"
#include "net/latency_model.h"
#include "net/net_stats.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace harmony::cluster {

/// Per-replica write propagation delays, inline like the replica list itself.
using DelayList = SmallVec<SimDuration, kMaxReplicas>;

/// Hooks the monitoring module attaches to, for what only the cluster sees.
/// (Client-side issue/complete records go from the workload layer straight
/// to monitor::Monitor.) Callbacks run inside the simulation loop;
/// implementations must be cheap and must not re-enter the cluster API.
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;
  /// Every live replica has applied this write. `replica_delays` holds, per
  /// replica (unsorted), apply_time - write_start. Harmony's estimator reads
  /// its T / t_j inputs from these.
  virtual void on_write_propagated(Key key, SimTime write_start,
                                   const DelayList& replica_delays) {
    (void)key; (void)write_start; (void)replica_delays;
  }
  /// A replica answered a coordinator-issued read (data or digest).
  virtual void on_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                                   bool cross_dc) {
    (void)replica; (void)rtt; (void)cross_dc;
  }
};

/// Scripted fault actions. Node-scoped ops name a node, DC-scoped ops a DC;
/// degradation ops carry a latency multiplier (restore resets it to 1).
enum class FaultOp : std::uint8_t {
  kKillNode,     ///< node stops serving (same as kill_node())
  kReviveNode,   ///< node comes back and replays hints
  kDcBlackout,   ///< every node in the DC dies at once
  kDcRestore,    ///< every node in the DC revives
  kDegradeNode,  ///< all links touching the node get `factor`x latency
  kRestoreNode,  ///< node link latency back to 1x
  kDegradeWan,   ///< all cross-DC links get `factor`x latency
  kRestoreWan,   ///< WAN latency back to 1x
};

/// One deterministic fault-schedule entry. Rides the typed event lane
/// (sim::EventKind::kFault), so fault timing interleaves with request traffic
/// in exact (time, seq) order and every scenario is seed-reproducible.
struct FaultSpec {
  SimTime at = 0;
  FaultOp op = FaultOp::kKillNode;
  net::NodeId node = 0;  ///< target for node-scoped ops
  net::DcId dc = 0;      ///< target for DC-scoped ops
  double factor = 1.0;   ///< latency multiplier for degrade ops
};

enum class AdmissionMode : std::uint8_t {
  kShed,   ///< over-rate requests are rejected with retry-after
  kDelay,  ///< over-rate requests queue (bounded), then shed past the cap
};

/// Coordinator-side resilience knobs. Everything defaults OFF, and the off
/// path is byte-identical to the pre-resilience cluster (same RNG draw
/// sequence, same event schedule).
struct ResilienceConfig {
  /// Hedged (speculative) reads: after the hedge delay, send one backup data
  /// read to the next snitch-ranked untried alive replica. Read-only by
  /// design — writes already fan out to every replica.
  bool hedge_reads = false;
  /// Hedge delay = this quantile of observed replica read RTTs (in [0,1]),
  /// floored at hedge_min_delay; hedge_fallback_delay is used until enough
  /// RTT samples accumulate (32).
  double hedge_quantile = 0.95;
  SimDuration hedge_min_delay = msec(1);
  SimDuration hedge_fallback_delay = msec(5);

  /// Read retries on attempt timeout, against replicas excluding every
  /// previously-tried host (Envoy host reselection). 0 = off.
  int read_retries = 0;
  /// Backoff before retry attempt k is 2^(k-1) * retry_backoff.
  SimDuration retry_backoff = msec(5);

  /// Per-DC token-bucket admission control at the coordinator, in requests
  /// per second. 0 = off.
  double admission_rate = 0;
  double admission_burst = 100;  ///< bucket depth, requests
  AdmissionMode admission_mode = AdmissionMode::kShed;
  /// kDelay mode: longest a request may wait for a token before shedding.
  SimDuration admission_max_delay = msec(50);
};

struct ClusterConfig {
  std::size_t node_count = 10;
  std::size_t dc_count = 2;
  int rf = 3;
  /// true: NetworkTopologyStrategy (rf split across DCs, first DCs get the
  /// remainder); false: SimpleStrategy (ring order, DC-oblivious).
  bool use_nts = true;
  int vnodes_per_node = 8;
  net::TieredLatencyModel::Params latency{};
  NodeParams node{};
  /// Chance that a read additionally repairs replicas it did not contact
  /// (Cassandra's global read repair). Contacted stale replicas are always
  /// repaired.
  double read_repair_chance = 0.05;
  SimDuration request_timeout = sec(2);
  /// true: snitch orders read replicas nearest-first (Cassandra default);
  /// false: uniform shuffle (spreads load, worsens staleness).
  bool closest_first_snitch = true;
  std::uint32_t message_overhead_bytes = 64;
  std::uint32_t digest_bytes = 16;

  /// Anti-entropy: every period, repair the keys written since the last
  /// sweep (digest reads on every replica, then LWW repair of stale ones).
  /// 0 disables (read repair + hints remain the only convergence paths).
  SimDuration anti_entropy_period = 0;
  /// Cap on keys repaired per sweep (bounds repair burst size).
  std::size_t anti_entropy_keys_per_round = 512;

  /// Hedging / retry / admission knobs (all off by default).
  ResilienceConfig resilience{};

  /// rf split per DC under NTS (first DCs take the remainder).
  std::vector<int> rf_per_dc() const;
  /// Replication factor inside `dc` (rf when SimpleStrategy, split when NTS).
  int local_rf(net::DcId dc) const;
};

struct ReadResult {
  bool ok = false;       ///< required responses arrived in time
  bool found = false;    ///< any contacted replica had the key
  bool shed = false;     ///< rejected by admission control (ok is false)
  Version version = kNoVersion;
  std::uint32_t value_size = 0;
  int replicas_contacted = 0;
  bool stale = false;             ///< oracle ground truth
  SimDuration staleness_age = 0; ///< oracle ground truth (0 when fresh)
  SimDuration retry_after = 0;   ///< when shed: earliest useful re-issue delay
};

struct WriteResult {
  bool ok = false;
  bool shed = false;  ///< rejected by admission control (ok is false)
  Version version = kNoVersion;
  SimDuration retry_after = 0;  ///< when shed: earliest useful re-issue delay
};

/// Completion callbacks are move-only inline callables: the capture bytes
/// live in the pending-request record, so delivering a result performs no
/// heap traffic (std::function was the request path's last steady-state
/// allocation). 80 bytes covers the workload clients' captures with room for
/// bench/test lambdas.
using ReadCallback = InlineCallable<80, const ReadResult&>;
using WriteCallback = InlineCallable<80, const WriteResult&>;

class Cluster {
 public:
  Cluster(sim::Simulation& sim, ClusterConfig cfg);
  ~Cluster();

  // Non-copyable: owns simulation entities.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Instantly install keys [0, count) of `size` bytes on their replicas
  /// (dataset load; bypasses messaging and the oracle). The records become
  /// each replica store's base layer (replica_store.h): one bit per key per
  /// node, no table entry, with the version the k-th of `count` writes
  /// issued now would get. Call once, on a fresh cluster: a store that was
  /// already preloaded or written to fails a check.
  void preload_range(std::uint64_t count, std::uint32_t size);

  /// Sentinel origin: the client is homed in the DC it contacts.
  static constexpr net::DcId kSameOrigin = 0xFFFF;

  /// Issue a client read against a coordinator in `client_dc`. The callback
  /// fires when the response reaches the client (or the request times out).
  /// `origin_dc` is where the client physically lives: when it differs from
  /// `client_dc` (DC-failover re-routing) the client link is a cross-DC hop.
  void client_read(net::DcId client_dc, Key key, ReplicaRequirement req,
                   ReadCallback cb, net::DcId origin_dc = kSameOrigin);

  /// Issue a client write (value of `size` bytes) against `client_dc`.
  void client_write(net::DcId client_dc, Key key, std::uint32_t size,
                    ReplicaRequirement req, WriteCallback cb,
                    net::DcId origin_dc = kSameOrigin);

  // ---- failure injection -------------------------------------------------
  void kill_node(net::NodeId id);
  void revive_node(net::NodeId id);
  void kill_dc(net::DcId dc);
  void revive_dc(net::DcId dc);
  std::size_t alive_count() const;
  /// True while at least one node in `dc` is alive (client re-routing poll).
  bool dc_alive(net::DcId dc) const { return alive_per_dc_[dc] > 0; }

  /// Schedule one scripted fault action on the typed event lane.
  void schedule_fault(const FaultSpec& f);

  // ---- introspection -----------------------------------------------------
  const net::Topology& topology() const { return topo_; }
  const ClusterConfig& config() const { return cfg_; }
  const TokenRing& ring() const { return ring_; }
  StalenessOracle& oracle() { return oracle_; }
  const StalenessOracle& oracle() const { return oracle_; }
  const net::NetStats& net_stats() const { return net_stats_; }
  /// Sender-side hinted-handoff store.
  const HintStore& hints() const { return hints_; }
  Node& node(net::NodeId id);
  const Node& node(net::NodeId id) const;

  /// Replica set for `key` (placement order): one read of the per-arc
  /// placement table the ctor built. Placement never depends on liveness,
  /// so the table is immutable and the reference stays valid for the
  /// cluster's lifetime.
  const ReplicaList& replicas_for(Key key) const {
    return arc_replicas_[ring_.arc_of(key)];
  }

  std::uint64_t storage_bytes() const;
  /// Replica-level storage operations served (reads+digests+writes).
  std::uint64_t replica_ops() const { return replica_ops_; }
  /// Billed block-device I/O requests across all nodes (cache-miss reads and
  /// amortized commit-log flushes; memtable hits are free).
  double disk_io() const;
  SimDuration total_busy_time() const;
  /// Requests that exhausted every attempt without meeting their requirement.
  /// A request rescued by a retry or hedge is NOT counted here.
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t unavailable() const { return unavailable_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t hedges_fired() const { return hedges_fired_; }
  /// Hedge legs whose response completed the read (the hedge paid off).
  std::uint64_t hedge_wins() const { return hedge_wins_; }
  std::uint64_t sheds() const { return sheds_; }
  /// Current hedge delay (fallback until enough RTT samples accumulate).
  SimDuration current_hedge_delay() const {
    return hedge_delay_cached_ > 0 ? hedge_delay_cached_
                                   : cfg_.resilience.hedge_fallback_delay;
  }
  std::uint64_t read_repairs_sent() const { return read_repairs_; }
  std::uint64_t anti_entropy_repairs() const { return anti_entropy_repairs_; }
  std::size_t anti_entropy_backlog() const { return dirty_keys_.size(); }

  /// Attach the measurement observer.
  void set_observer(ClusterObserver* observer) { observer_ = observer; }

  sim::Simulation& simulation() { return *sim_; }

  /// Typed-lane dispatcher for the cluster event domain: switches on the
  /// event kind and calls straight into the member function handlers below.
  /// Registered on the Simulation at construction; `ev.target` names the
  /// Cluster instance.
  static void dispatch_event(const sim::TypedEvent& ev);

 private:
  // Pending request state is fully inline (SmallVec members) and lives in a
  // generation-checked SlotPool: creating, fanning out, and completing a
  // request performs no per-request heap allocation at all in steady state.
  // Event callbacks carry {slot, generation} handles; a handle whose request
  // already completed (late timeout, ack racing an erase) dereferences to
  // nullptr — or, for records held until client delivery, to a record with
  // `responded` set — exactly as the old map's erased-id lookup missed.
  //
  // The record outlives the response: the client-delivery leg rides the typed
  // lane carrying only the handle, so the callback and result stay in the
  // record until the delivery event fires (the callback itself cannot ride a
  // POD event). reset_for_reuse() is the SlotPool recycling hook — cheaper
  // than assigning a default-constructed temporary, which the release fast
  // path would otherwise pay per request.
  struct PendingWrite {
    Key key{};
    VersionedValue value{};
    SimTime start = 0;
    net::DcId client_dc = 0;
    net::NodeId coord = 0;
    ReplicaList replicas;
    int needed = 1;
    bool local_only = false;
    bool each_quorum = false;
    DcCounts needed_per_dc;
    DcCounts acks_per_dc;
    int acks = 0;
    int alive_targets = 0;
    int completed_targets = 0;  ///< fan-out deliveries that ran (dead or alive)
    DelayList delays;
    bool responded = false;
    bool delivered = false;   ///< client callback has run (or is imminent)
    bool deliver_ok = false;  ///< result the delivery leg will report
    bool deliver_shed = false;    ///< delivery reports an admission rejection
    bool cross_origin = false;    ///< client lives in another DC (failover)
    bool admitted = false;        ///< kDelay admission already paid its token
    SimDuration deliver_retry_after = 0;
    WriteCallback cb;
    sim::EventHandle timeout;

    void reset_for_reuse() {
      key = {};
      value = {};
      start = 0;
      client_dc = 0;
      coord = 0;
      replicas.clear();
      needed = 1;
      local_only = false;
      each_quorum = false;
      needed_per_dc.clear();
      acks_per_dc.clear();
      acks = 0;
      alive_targets = 0;
      completed_targets = 0;
      delays.clear();
      responded = false;
      delivered = false;
      deliver_ok = false;
      deliver_shed = false;
      cross_origin = false;
      admitted = false;
      deliver_retry_after = 0;
      cb = nullptr;
      timeout = {};
    }
  };

  struct PendingRead {
    Key key{};
    SimTime start = 0;
    net::DcId client_dc = 0;
    net::NodeId coord = 0;
    ReplicaList contacted;
    ReplicaList all_replicas;
    int needed = 1;
    bool each_quorum = false;
    DcCounts needed_per_dc;
    DcCounts got_per_dc;
    int responses = 0;
    bool found = false;
    VersionedValue best{};
    SmallVec<std::pair<net::NodeId, Version>, kMaxReplicas> versions_seen;
    bool responded = false;
    ReadResult result{};  ///< filled at finish_read, delivered by typed leg
    ReadCallback cb;
    sim::EventHandle timeout;

    // ---- resilience state (untouched on the knobs-off path) --------------
    /// Snitch order captured at start_read; hedge/retry candidates walk it
    /// skipping already-contacted hosts. Filled only when hedging or retries
    /// are enabled (it reuses the ordering start_read computes anyway).
    ReplicaList snitch_order;
    std::uint8_t attempts = 1;  ///< attempts started (1 = the original)
    bool hedged = false;        ///< a hedge leg is in flight (or landed)
    bool cross_origin = false;  ///< client lives in another DC (failover)
    bool admitted = false;      ///< kDelay admission already paid its token
    net::NodeId hedge_replica = 0;  ///< valid while `hedged`
    sim::EventHandle hedge_timer;
    sim::EventHandle retry_timer;

    void reset_for_reuse() {
      key = {};
      start = 0;
      client_dc = 0;
      coord = 0;
      contacted.clear();
      all_replicas.clear();
      needed = 1;
      each_quorum = false;
      needed_per_dc.clear();
      got_per_dc.clear();
      responses = 0;
      found = false;
      best = {};
      versions_seen.clear();
      responded = false;
      result = {};
      cb = nullptr;
      timeout = {};
      snitch_order.clear();
      attempts = 1;
      hedged = false;
      cross_origin = false;
      admitted = false;
      hedge_replica = 0;
      hedge_timer = {};
      retry_timer = {};
    }
  };

  using WriteHandle = SlotPool<PendingWrite>::Handle;
  using ReadHandle = SlotPool<PendingRead>::Handle;

  net::NodeId pick_coordinator(net::DcId dc);
  SimDuration client_link_delay(bool cross_dc = false);
  SimDuration link_delay(net::NodeId src, net::NodeId dst);
  void account(net::NodeId src, net::NodeId dst, std::uint64_t bytes);
  void account_client(std::uint64_t bytes, bool cross_dc = false);

  /// Order candidate read replicas for a coordinator (snitch).
  ReplicaList order_for_read(net::NodeId coord, const ReplicaList& replicas);

  void start_write(WriteHandle h);
  void replica_apply_write(WriteHandle h, net::NodeId replica);
  void write_apply_done(WriteHandle h, net::NodeId replica);
  void write_ack(WriteHandle h, net::NodeId replica, SimDuration apply_delay);
  void finish_write(WriteHandle h, bool ok);
  void write_deliver(WriteHandle h);
  void read_deliver(ReadHandle h);

  void start_read(ReadHandle h);
  void replica_serve_read(ReadHandle h, net::NodeId replica, bool data_read,
                          SimTime sent_at, Key key, net::NodeId coord);
  void read_serve_done(ReadHandle h, net::NodeId replica, Key key,
                       net::NodeId coord, bool data_read, SimTime sent_at);
  void read_response(ReadHandle h, net::NodeId replica, bool found,
                     VersionedValue value, SimDuration rtt);
  void finish_read(ReadHandle h, bool ok);

  // ---- resilience helpers ------------------------------------------------
  /// Best untried alive replica for a hedge/retry leg: snitch-class ranked
  /// (same-rack, then same-DC, then cross-DC relative to the coordinator),
  /// ties broken by earlier snitch position; -1 when exhausted. Honours the
  /// local-DC restriction.
  int next_untried_replica(const PendingRead& r) const;
  /// Send one data-read leg of attempt `h` to `replica` (hedge/retry legs).
  void send_read_leg(ReadHandle h, net::NodeId replica);
  void fire_hedge(ReadHandle h);
  void read_timeout(ReadHandle h);
  void retry_read(ReadHandle h);
  void observe_read_rtt(SimDuration rtt);
  /// Token-bucket check for one request in `dc`. Returns 0 when admitted
  /// (one token consumed); otherwise the retry-after the shed should carry.
  SimDuration admit(net::DcId dc);
  void apply_fault(FaultOp op, net::NodeId node, net::DcId dc, double factor);
  void set_node_latency_mult(net::NodeId node, double factor);

  void write_shed(WriteHandle h, SimDuration retry_after);
  void read_shed(ReadHandle h, SimDuration retry_after);
  void send_repair(net::NodeId coord, net::NodeId target, Key key,
                   const VersionedValue& value);
  void repair_arrive(net::NodeId target, Key key, const VersionedValue& value);
  void repair_apply(net::NodeId target, Key key, const VersionedValue& value);
  void hint_deliver(net::NodeId target, Key key, const VersionedValue& value);

  void replay_hints(net::NodeId target);
  void anti_entropy_sweep();

  sim::Simulation* sim_;
  ClusterConfig cfg_;
  net::Topology topo_;
  net::TieredLatencyModel latency_;
  TokenRing ring_;
  std::vector<std::unique_ptr<Node>> nodes_;
  StalenessOracle oracle_;
  ClusterObserver* observer_ = nullptr;

  DcCounts rf_per_dc_;    // cfg_.rf_per_dc(), computed once
  /// Replica set of every ring arc (TokenRing::arc_of), built once by the
  /// ctor and read-only after.
  std::vector<ReplicaList> arc_replicas_;

  // ---- request-path state ----------------------------------------------
  Rng rng_;  ///< coordinator choice, snitch shuffles, link jitter
  std::uint64_t write_seq_ = 0;
  std::uint64_t replica_ops_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t unavailable_ = 0;
  std::uint64_t read_repairs_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t hedges_fired_ = 0;
  std::uint64_t hedge_wins_ = 0;
  std::uint64_t sheds_ = 0;
  /// Replica read RTTs feeding the hedge-delay quantile; sampled only while
  /// hedging is enabled. The cached delay is recomputed every 64 samples so
  /// the percentile scan stays off the per-response path.
  LatencyHistogram hedge_rtt_;
  SimDuration hedge_delay_cached_ = 0;  ///< 0: use the fallback delay
  HintStore hints_;  ///< sender-side: hints the coordinators hold
  net::NetStats net_stats_;
  SlotPool<PendingWrite> pending_writes_;
  SlotPool<PendingRead> pending_reads_;
  /// Keys written since the last anti-entropy sweep.
  // lint: allow(hot-path-alloc): touched only when anti-entropy is on;
  // alloc_guard pins the default request path.
  std::unordered_set<Key> dirty_keys_;

  /// alive()-flags mirrored out of the Node objects: the request path scans
  /// liveness constantly (coordinator picks, feasibility, contact sets), and
  /// a contiguous byte array beats a unique_ptr chase per node. kill_node/
  /// revive_node keep it in sync.
  std::vector<std::uint8_t> alive_;
  bool node_alive(net::NodeId id) const { return alive_[id] != 0; }
  /// Alive-node count per DC, kept in sync by kill_node/revive_node; feeds
  /// dc_alive() so clients can poll failover state in O(1).
  DcCounts alive_per_dc_;

  std::uint64_t anti_entropy_repairs_ = 0;

  /// Admission token bucket per DC (lazy refill on access).
  struct TokenBucket {
    double tokens = 0;
    SimTime last = 0;
  };
  std::vector<TokenBucket> admission_;

  /// Per-node link-latency multipliers and the WAN-wide multiplier from
  /// degradation faults. `links_degraded_` gates the multiply so the healthy
  /// path never pays it (and stays byte-identical).
  std::vector<double> latency_mult_;
  double wan_mult_ = 1.0;
  bool links_degraded_ = false;
  void refresh_links_degraded();

  /// The sweep is scheduled lazily (only while dirty keys exist) so an idle
  /// cluster's event queue drains.
  bool anti_entropy_scheduled_ = false;
};

}  // namespace harmony::cluster
