// Measurement plumbing shared by the untimed and traced passes: a one-line
// JSON writer, the simulated-output fingerprint and correctness checks, the
// process resource counters, the policy decorator that marks run phases,
// and the span tracer behind the per-layer breakdown.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "workload/policy.h"
#include "workload/runner.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

// ---------------------------------------------------------------- JSON out

/// Ordered JSON object built up field by field; str() renders one line.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& count(const std::string& key, std::uint64_t v);
  Json& flag(const std::string& key, bool v);
  Json& text(const std::string& key, const std::string& v);
  Json& object(const std::string& key, const Json& v);
  Json& list(const std::string& key, const std::vector<double>& v);
  std::string str() const;

 private:
  void field(const std::string& key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --------------------------------------------------------- host counters

std::int64_t wall_now_ns();

struct Usage {
  double cpu_s = 0;              ///< user + sys, all threads of the process
  double peak_rss_mb = 0;
  std::uint64_t vol_ctx_switches = 0;
};
Usage process_usage();

/// Host-speed reference: a fixed heap-and-hash-table loop shaped like the
/// simulator's hot path (priority-queue pops and pushes, table probes in a
/// cache-sized array), independent of the simulator's code. One copy runs
/// on each of `threads` threads, and the copies step through 1,000 windows
/// in lockstep on a std::barrier, as the sharded kernel's conservative
/// windows do, so a stalled core slows the reference as it slows a sharded
/// run. Returns the wall time in seconds.
double reference_kernel_s(unsigned threads);

/// What reference_kernel_s() takes on the reference host. Host figures are
/// reported normalised to it: a run whose adjacent reference kernels took
/// twice this long had its times halved and its rates doubled. Shared VMs
/// slow down and speed up by tens of percent over tens of seconds, and the
/// reference slows with them (see perfbench/README.md).
inline constexpr double kReferenceKernelS = 0.020;

// ------------------------------------------------- fingerprint and checks

/// The simulated outcome of one run: exact functions of code and seed. Two
/// runs of the same config must produce equal fingerprints.
struct Fingerprint {
  std::vector<std::pair<std::string, std::string>> fields;
  bool operator==(const Fingerprint& o) const { return fields == o.fields; }
  Json json() const;
};
Fingerprint fingerprint(const harmony::workload::RunResult& r);

/// Named pass/fail checks; all() is the run's correctness verdict.
struct Checks {
  std::vector<std::pair<std::string, bool>> items;
  void add(const std::string& name, bool ok) { items.emplace_back(name, ok); }
  bool all() const;
  Json json() const;
};

/// Correctness of one run_experiment result. `op_budget` is the closed-loop
/// budget (0 for open loop); `serial` runs judge every read as it completes,
/// sharded ones report the oracle's whole-run totals. Check names start
/// with `prefix`.
void check_result(const harmony::workload::RunResult& r, std::uint64_t op_budget,
                  bool serial, const std::string& prefix, Checks& checks);

/// Ops attempted over the whole run and how many of them failed (timeouts,
/// unavailable, admission sheds, open-loop queue sheds).
std::uint64_t attempted_ops(const harmony::workload::RunResult& r,
                            std::uint64_t op_budget);
std::uint64_t failed_ops(const harmony::workload::RunResult& r);

/// The modelled-system figures of one run that run.py pools over a
/// measurement's runs: counts, bill, and each latency histogram as its
/// quantiles at kQuantileGrid evenly spaced ranks (ms).
inline constexpr int kQuantileGrid = 1000;
Json sim_figures(const harmony::workload::RunResult& r, std::uint64_t op_budget);

// ----------------------------------------------------------- span tracer

/// Makes a replay loop's result observable so the loop is not optimised
/// away.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// Cheap monotonic tick source for per-event spans: the TSC where there is
/// one (converted to ns by calibrating against steady_clock over the same
/// traced interval), steady_clock nanoseconds elsewhere.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(wall_now_ns());
#endif
}

/// Nested span accounting for one thread. A span's self time is its
/// duration minus the time of the spans opened inside it.
class Tracer {
 public:
  struct Acc {
    std::uint64_t calls = 0;
    std::uint64_t self = 0;  ///< ticks
    std::uint64_t incl = 0;  ///< ticks
  };

  template <class F>
  decltype(auto) span(Acc& acc, F&& f) {
    const std::uint64_t saved = child_;
    child_ = 0;
    const std::uint64_t t0 = ticks();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      close(acc, t0, saved);
    } else {
      auto out = f();
      close(acc, t0, saved);
      return out;
    }
  }

  /// Ticks per nanosecond, set once the traced interval is known.
  double ticks_per_ns = 1.0;
  double ns(std::uint64_t t) const { return static_cast<double>(t) / ticks_per_ns; }

  static constexpr std::size_t kKinds = 64;
  Acc kind[kKinds];  ///< typed-event handlers, by sim::EventKind
  Acc monitor;       ///< overridden ClusterObserver hooks
  Acc decision;      ///< policy read/write requirement calls
  Acc snapshot;      ///< Monitor::snapshot at policy ticks
  Acc tick;          ///< ConsistencyPolicy::tick
  Acc closure;       ///< the assembly's own closure-lane events (warm-up)
  Acc kernel;        ///< the whole run loop

 private:
  void close(Acc& acc, std::uint64_t t0, std::uint64_t saved) {
    const std::uint64_t elapsed = ticks() - t0;
    ++acc.calls;
    acc.incl += elapsed;
    acc.self += elapsed - child_;
    child_ = saved + elapsed;
  }
  std::uint64_t child_ = 0;
};

// ------------------------------------------------------ policy decorator

/// Host-time marks of one run's phases, taken by PhaseProbe from inside
/// run_experiment: the first consistency decision is the first simulated
/// operation, and the runner asks the policy for its name when collection
/// starts. Atomic: sharded runs decide on every worker thread.
struct PhaseMarks {
  std::atomic<std::int64_t> first_decision_ns{0};
  std::atomic<std::int64_t> collect_ns{0};
};

/// Wraps the workload's policy. Forwards every call; marks run phases and,
/// with a tracer (serial runs only), times each decision.
class PhaseProbe final : public harmony::policy::ConsistencyPolicy {
 public:
  PhaseProbe(std::unique_ptr<harmony::policy::ConsistencyPolicy> inner,
             PhaseMarks* marks, Tracer* tracer)
      : inner_(std::move(inner)), marks_(marks), tracer_(tracer) {}

  harmony::cluster::ReplicaRequirement read_requirement() const override {
    mark(marks_->first_decision_ns);
    if (tracer_ == nullptr) return inner_->read_requirement();
    return tracer_->span(tracer_->decision,
                         [&] { return inner_->read_requirement(); });
  }
  harmony::cluster::ReplicaRequirement write_requirement() const override {
    mark(marks_->first_decision_ns);
    if (tracer_ == nullptr) return inner_->write_requirement();
    return tracer_->span(tracer_->decision,
                         [&] { return inner_->write_requirement(); });
  }
  void tick(const harmony::monitor::SystemState& state) override {
    inner_->tick(state);
  }
  std::string name() const override {
    mark(marks_->collect_ns);
    return inner_->name();
  }
  std::uint64_t switches() const override { return inner_->switches(); }

 private:
  static void mark(std::atomic<std::int64_t>& at) {
    if (at.load(std::memory_order_relaxed) != 0) return;
    std::int64_t unset = 0;
    at.compare_exchange_strong(unset, wall_now_ns(), std::memory_order_relaxed);
  }

  std::unique_ptr<harmony::policy::ConsistencyPolicy> inner_;
  PhaseMarks* marks_;
  Tracer* tracer_;
};

/// `factory` with every policy it makes wrapped in a PhaseProbe.
harmony::policy::PolicyFactory probed(harmony::policy::PolicyFactory factory,
                                      PhaseMarks* marks, Tracer* tracer);

}  // namespace perfbench
