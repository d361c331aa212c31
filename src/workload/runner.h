// The experiment harness: cluster + clients + monitor + policy + bill in one
// call. Every test, example and paper-reproduction bench goes through
// run_experiment(), so all of them measure the same way.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include <memory>

#include "cluster/cluster.h"
#include "common/histogram.h"
#include "cost/billing.h"
#include "cost/energy.h"
#include "monitor/monitor.h"
#include "workload/open_loop.h"
#include "workload/policy.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace harmony::workload {

struct RunConfig {
  std::string label = "run";
  cluster::ClusterConfig cluster{};
  WorkloadSpec workload{};
  policy::PolicyFactory policy;  ///< required
  monitor::MonitorConfig monitor{};
  /// How often the policy is re-ticked with a fresh monitoring snapshot.
  SimDuration policy_tick = 500 * kMillisecond;
  /// Simulated warm-up; measurements (latency/staleness/throughput) reset at
  /// this point. Billing covers the whole run, as a real bill would.
  SimDuration warmup = 2 * kSecond;
  std::uint64_t seed = 1;
  cost::PriceBook price_book = cost::PriceBook::ec2_2012();
  cost::PowerModel power{};
  /// Record every issued operation into RunResult::trace — the "past access
  /// trace" input of the behavior-modeling pipeline (§III-C). Costs memory
  /// proportional to op_count; off by default.
  bool record_trace = false;

  /// Inert: every run executes on one event queue, and these two fields
  /// are ignored (and not validated). They stay only until the repo
  /// benchmark stops setting them.
  unsigned num_shard_threads = 0;
  unsigned shards_per_dc = 1;

  /// Scheduled failure injection: kill/revive nodes mid-run (availability
  /// experiments; revival replays hints). Each entry is lowered onto the
  /// typed fault lane as a kKillNode / kReviveNode FaultSpec, so it behaves
  /// exactly like the equivalent `fault_schedule` entry.
  struct FaultEvent {
    SimTime at = 0;
    net::NodeId node = 0;
    bool kill = true;  ///< false = revive
  };
  std::vector<FaultEvent> faults;

  /// Full fault schedule (kill/revive, DC blackout/restore, link degradation
  /// windows), driven off the typed event lane via Cluster::schedule_fault —
  /// every scenario replays bit-identically from the seed. Subsumes `faults`,
  /// which is kept for the node-kill-only call sites.
  std::vector<cluster::FaultSpec> fault_schedule;
};

struct RunResult {
  std::string label;
  std::string policy_name;

  // ---- volume (post-warmup) ----------------------------------------------
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t errors = 0;  ///< timed-out or unavailable operations

  // ---- performance (post-warmup) -----------------------------------------
  double duration_s = 0;   ///< measured window (warmup end -> last op)
  double throughput = 0;   ///< ops/s over the measured window
  LatencyHistogram read_latency;
  LatencyHistogram write_latency;

  // ---- consistency (post-warmup) ------------------------------------------
  std::uint64_t stale_reads = 0;
  std::uint64_t fresh_reads = 0;
  double stale_fraction = 0;
  LatencyHistogram staleness_age;  ///< over stale reads only

  // ---- adaptivity ----------------------------------------------------------
  std::map<int, std::uint64_t> read_level_usage;  ///< replicas-waited -> reads
  double avg_read_replicas = 0;
  std::uint64_t policy_switches = 0;

  // ---- cost (whole run) ----------------------------------------------------
  cost::ResourceUsage usage;
  cost::Bill bill;
  double energy_kwh = 0;

  // ---- monitoring -----------------------------------------------------------
  /// The monitor's view at the end of the run (propagation profile, rates,
  /// behavior features). Benches use it for paper-style model estimates.
  monitor::SystemState final_state;
  /// Issued-operation trace (only when RunConfig::record_trace).
  std::shared_ptr<Trace> trace;

  // ---- substrate ------------------------------------------------------------
  net::NetStats net;
  std::uint64_t timeouts = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t sim_events = 0;
  /// Inert: always 0 (kept until the repo benchmark stops reading it).
  std::uint64_t mailbox_spills = 0;
  double total_wall_s = 0;  ///< including warmup

  // ---- resilience SLA metrics (whole run) ----------------------------------
  // `timeouts` above counts only requests that exhausted every attempt; a
  // request rescued by a retry or hedge shows up in `retries`/`hedge_wins`
  // instead of being double-counted as a timeout.
  // ---- open-loop overload ledger (whole run) --------------------------------
  /// Populated only when WorkloadSpec::open_loop.enabled: the explicit
  /// arrivals / sheds / in-flight accounting of the open-loop engine.
  OpenLoopResult open_loop;

  std::uint64_t retries = 0;           ///< coordinator read retry attempts
  std::uint64_t hedges_fired = 0;      ///< speculative backup reads sent
  std::uint64_t hedge_wins = 0;        ///< hedge legs that completed the read
  std::uint64_t sheds = 0;             ///< requests rejected by admission
  std::uint64_t client_shed_retries = 0;  ///< client re-issues after a shed
  std::uint64_t rerouted_ops = 0;      ///< ops routed to a non-home DC

  /// One-line summary for logs.
  std::string summary() const;
};

/// Run one experiment to completion. Deterministic in cfg.seed.
RunResult run_experiment(const RunConfig& cfg);

}  // namespace harmony::workload
