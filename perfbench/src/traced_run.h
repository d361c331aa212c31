// The traced pass for serial workloads: the benchmark assembles the run
// itself from public pieces (Simulation, Cluster, a Monitor subclass,
// Client / OpenLoopSource behind its own ClientEnv, a decorated policy) the
// way run_experiment's serial path does, and times each layer from outside:
// the typed-event dispatchers are wrapped per domain, the monitor hooks and
// policy calls are spans, and the oracle calls and key stream are captured
// for replay through fresh objects afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/staleness_oracle.h"
#include "measure.h"
#include "workload/runner.h"

namespace perfbench {

/// One staleness-oracle call as the live run made it.
struct OracleCall {
  enum Op : std::uint8_t { kCommit, kBeginRead, kEndRead, kJudge };
  Op op = kCommit;
  bool stale = false;  ///< kJudge: the live verdict
  harmony::cluster::Key key = 0;
  harmony::cluster::Version version{};
  harmony::SimTime at = 0;
  harmony::SimDuration age = 0;  ///< kJudge: the live staleness age
};

struct TracedRun {
  harmony::workload::RunResult result;  ///< the assembly's own collect
  Tracer tracer;

  // Host time of the runner phases, seconds.
  double construct_s = 0;  ///< Simulation, Cluster, Monitor, policy
  double preload_s = 0;    ///< dataset preload, then client/source set-up
  double warmup_s = 0;     ///< run loop up to the warm-up boundary
  double measure_s = 0;    ///< warm-up boundary to the end of the run loop
  double collect_s = 0;
  double wall_s = 0;       ///< all of the above
  double kernel_wall_s = 0;

  std::uint64_t typed_events = 0;  ///< handled by the wrapped dispatchers
  std::uint64_t reads_completed = 0;   ///< whole run, warm-up included
  std::uint64_t writes_completed = 0;  ///< whole run, warm-up included
  std::uint64_t replica_ops = 0;
  std::uint64_t live_stale = 0;  ///< the live oracle's whole-run verdicts
  std::uint64_t live_fresh = 0;

  std::vector<harmony::cluster::Key> keys;  ///< issued keys, in issue order
  std::vector<OracleCall> oracle_calls;
};

/// Run `cfg` (serial: num_shard_threads == 0) through the assembly.
TracedRun run_traced(const harmony::workload::RunConfig& cfg);

struct OracleReplay {
  std::uint64_t calls = 0;
  double ns_per_call = 0;
  /// Every replayed verdict and the final stale/fresh counts equal the live
  /// oracle's.
  bool ok = false;
};
OracleReplay replay_oracle(const TracedRun& run);

struct RingReplay {
  double lookup_ns = 0;  ///< Cluster::replicas_for (placement cache)
  double walk_ns = 0;    ///< TokenRing placement walk, no cache
};
/// Replays `keys` through a fresh cluster of `cfg`'s shape.
RingReplay replay_ring(const harmony::workload::RunConfig& cfg,
                       const std::vector<harmony::cluster::Key>& keys);

/// Host ns per operation draw of `cfg`'s key stream (for open loop: the
/// user draw plus the key draw), from fresh distributions.
double replay_keygen(const harmony::workload::RunConfig& cfg, std::uint64_t n);

}  // namespace perfbench
