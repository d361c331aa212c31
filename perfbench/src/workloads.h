// The benchmark's three workloads, as run_experiment configurations.
//
// Each is built from the seed alone, so the same seed gives the same run.
// `smoke` shrinks every size (ops, records, users, simulated time) so the
// whole benchmark can be checked in seconds; the shape stays the same.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/runner.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Seed recorded as the workload's default (used when none is given).
  std::uint64_t default_seed = 0;
  /// Closed-loop op budget, or 0 for the open-loop (time-bounded) workload.
  std::uint64_t op_budget = 0;
  /// Runs a measurement pools, each at its own sub-seed. The modelled
  /// outcomes move from seed to seed (the adaptive policy settles
  /// differently, tails follow the arrival draws, the ring places keys
  /// unevenly), so a measurement pools several seeds.
  int runs = 1;
  /// Workload whose shard layer this one's traced pass measures (empty:
  /// none). Lets the shard layer be measured while a sharded workload's own
  /// wall time is too unsteady to gate (see perfbench/README.md).
  std::string shard_experiment;
  harmony::workload::RunConfig cfg;
};

/// Names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Default seed of a workload; throws std::invalid_argument on an unknown
/// name.
std::uint64_t default_seed(const std::string& name);

/// Seed of run `i` (i < 1024) of a measurement at `seed`.
std::uint64_t sub_seed(std::uint64_t seed, int i);

/// The named workload at `seed`. Throws std::invalid_argument on an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

}  // namespace perfbench
