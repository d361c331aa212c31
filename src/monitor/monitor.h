// Monitoring module (paper §III-A).
//
// Harmony's implementation on Cassandra has two halves: a monitoring module
// collecting "read rates and write rates, as well as network latencies", and
// an adaptive module doing estimation. This is the first half. It watches the
// cluster (as a ClusterObserver) and the clients (which call its record_*
// hooks directly), maintains windowed arrival rates and propagation-delay
// averages, and produces SystemState snapshots — the only interface tuners
// see, so Harmony/Bismar never touch simulator internals they could not
// observe in a real deployment.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_types.h"

namespace harmony::monitor {

/// Snapshot consumed by consistency tuners.
struct SystemState {
  SimTime now = 0;
  double read_rate = 0;   ///< client reads/s (windowed)
  double write_rate = 0;  ///< client writes/s (windowed)
  int rf = 1;
  int local_rf = 1;

  /// Mean time until the first replica has applied a write (Fig. 1's T), µs.
  double t_first_us = 0;
  /// Mean apply delay per replica order statistic (sorted ascending, size rf;
  /// index 0 ≈ T, last ≈ Tp), µs. Empty until a write has fully propagated.
  std::vector<double> prop_delays_us;

  /// Replica read responsiveness (coordinator send -> response), µs.
  double replica_rtt_local_us = 0;
  double replica_rtt_remote_us = 0;
  /// Client-observed completed-read latency mean, µs.
  double read_latency_us = 0;
  double write_latency_us = 0;

  /// Estimated client read/write latency when waiting for k replicas;
  /// index k-1 holds the estimate for k in [1, rf]. Bismar's cost inputs.
  std::vector<double> est_read_latency_by_k_us;
  std::vector<double> est_write_latency_by_k_us;

  /// Live behavior-model features, computed over the interval since the
  /// previous snapshot (the runtime classifier's window):
  double write_share = 0;      ///< writes / (reads + writes)
  double key_entropy = 0;      ///< bits over hashed key buckets
  double burstiness = 0;       ///< CV of operation inter-arrival gaps
  double mean_value_size = 0;  ///< bytes (written values)

  /// Key-collision index: probability that two independently drawn operations
  /// target the same key (Σ pₖ² over the access distribution, estimated from
  /// hashed key buckets). This is the fraction of the system-wide write rate
  /// that actually contends with a given read — the contention factor the
  /// stale-read estimator multiplies λw by. 1.0 would be a single hot key;
  /// ~1/n a uniform workload.
  double key_collision = 0;

  /// Degraded-mode signals, events/s over the window since the previous
  /// snapshot: how much of the coordinator's work is failure handling.
  /// Policies can read these to detect fault regimes (a timeout/shed spike)
  /// without touching simulator internals a real deployment could not see.
  double timeout_rate = 0;
  double retry_rate = 0;
  double hedge_rate = 0;
  double shed_rate = 0;

  /// Total propagation window Tp in µs (convenience accessor).
  double window_us() const {
    return prop_delays_us.empty() ? 0.0 : prop_delays_us.back();
  }
};

struct MonitorConfig {
  SimDuration rate_window = 10 * kSecond;  ///< arrival-rate window
  SimDuration ewma_half_life = 5 * kSecond;
  std::size_t rtt_reservoir = 256;
};

class Monitor : public cluster::ClusterObserver {
 public:
  explicit Monitor(MonitorConfig cfg = {});

  /// Register with the cluster and learn the replication layout.
  void attach(cluster::Cluster& c, net::DcId client_home_dc);

  // ---- client-side hooks: clients and open-loop sources call these
  // directly, once per logical op (virtual so a harness can observe them) ----
  virtual void record_read_issued(SimTime now, std::uint64_t key = 0);
  virtual void record_write_issued(SimTime now, std::uint64_t key = 0,
                                   std::uint32_t value_size = 0);
  virtual void record_read_complete(SimTime now, SimDuration latency);
  virtual void record_write_complete(SimTime now, SimDuration latency);

  // ---- ClusterObserver ----------------------------------------------------
  void on_write_propagated(cluster::Key key, SimTime write_start,
                           const cluster::DelayList& replica_delays) override;
  void on_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                           bool cross_dc) override;

  /// Produce a snapshot. Non-const: the behavior-model window features
  /// (entropy/burstiness/value size) are computed over the interval since the
  /// previous snapshot and their accumulators reset here.
  SystemState snapshot(SimTime now);

  /// Estimate the expected client latency of a read contacting k replicas,
  /// closest-first, from monitored RTTs (bootstrap over the RTT reservoirs).
  /// Used by Bismar's relative-cost model.
  double estimate_read_latency_us(int k, Rng& rng) const;

  std::uint64_t writes_observed() const { return writes_observed_; }

 private:
  MonitorConfig cfg_;
  int rf_ = 1;
  int local_rf_ = 1;
  /// Attached cluster: read-only counter source for the degraded-mode rates
  /// (the counters are observable coordinator metrics, not oracle state).
  const cluster::Cluster* cluster_ = nullptr;
  SimTime last_snapshot_time_ = 0;
  std::uint64_t last_timeouts_ = 0;
  std::uint64_t last_retries_ = 0;
  std::uint64_t last_hedges_ = 0;
  std::uint64_t last_sheds_ = 0;

  WindowedRate read_rate_;
  WindowedRate write_rate_;
  Ewma read_latency_;
  Ewma write_latency_;
  Ewma rtt_local_;
  Ewma rtt_remote_;
  Ewma t_first_;
  std::vector<Ewma> prop_delay_;  // per sorted replica index
  std::uint64_t writes_observed_ = 0;
  SimTime last_event_ = 0;

  // Fixed-size RTT reservoirs for bootstrap latency estimation.
  std::vector<double> local_samples_;
  std::vector<double> remote_samples_;
  std::uint64_t local_seen_ = 0, remote_seen_ = 0;
  Rng reservoir_rng_{0xBEEF};

  // Since-last-snapshot accumulators for the behavior-model features.
  static constexpr std::size_t kEntropyBuckets = 1024;
  std::vector<std::uint64_t> key_buckets_;
  std::uint64_t win_reads_ = 0, win_writes_ = 0;
  double win_value_bytes_ = 0;
  RunningStats win_gaps_;
  SimTime win_last_arrival_ = -1;
  double last_collision_ = 0;  ///< carried over empty windows
};

}  // namespace harmony::monitor
