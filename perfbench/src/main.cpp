// harmony_perfbench: one measured run of one workload, as one JSON line.
//
//   harmony_perfbench --workload NAME [--seed N] [--mode run|trace]
//                     [--run I] [--smoke]
//
// --mode run (default): run I of the workload's pool (Workload::runs runs,
//   each at its own sub-seed of --seed) through workload::run_experiment
//   with tracing off, in this process alone. Prints the run's host-side
//   figures, its modelled-system figures, its simulated-output fingerprint
//   and the correctness checks.
// --mode trace: the per-layer breakdown at the first sub-seed. Serial
//   workloads run once untraced and once through the benchmark's own traced
//   assembly (traced_run.h); the sharded workload re-runs its config at N
//   threads, merged-serial on one thread, and unsharded.
//
// run.py drives this binary: it runs the pool one process per run, takes
// medians, pools the counts and prints the benchmark's output format. Exit status: 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "traced_run.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using harmony::sim::EventKind;
using harmony::workload::RunConfig;
using harmony::workload::RunResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  std::string mode = "run";
  bool smoke = false;
  int run = 0;  ///< run mode: index of the run within the workload's pool
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
      a.seed_given = true;
    } else if (arg == "--mode") {
      a.mode = value();
    } else if (arg == "--run") {
      a.run = std::stoi(value());
      if (a.run < 0) throw std::invalid_argument("--run must be >= 0");
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.mode != "run" && a.mode != "trace") {
    throw std::invalid_argument("--mode must be run or trace");
  }
  if (!a.seed_given) a.seed = default_seed(a.workload);
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Json build_context() {
  Json j;
  j.text("compiler", PERFBENCH_COMPILER);
  j.text("build_type", PERFBENCH_BUILD_TYPE);
  j.count("hardware_threads", std::thread::hardware_concurrency());
  return j;
}

/// Whole-run completed ops: the closed-loop budget drains completely; the
/// open loop ledgers its completions.
std::uint64_t completed_ops(const RunResult& r, std::uint64_t op_budget) {
  return op_budget > 0 ? op_budget : r.open_loop.completed;
}

/// One run_experiment call, its host phases marked by a PhaseProbe.
struct TimedRun {
  RunResult result;
  double wall_s = 0;
  double setup_s = 0;
  double run_phase_s = 0;
  double collect_s = 0;
  bool phases_marked = false;
};

TimedRun timed_run(RunConfig cfg) {
  PhaseMarks marks;
  cfg.policy = probed(cfg.policy, &marks, nullptr);
  TimedRun t;
  const std::int64_t t0 = wall_now_ns();
  t.result = harmony::workload::run_experiment(cfg);
  const std::int64_t t1 = wall_now_ns();
  const std::int64_t first = marks.first_decision_ns.load();
  const std::int64_t collect = marks.collect_ns.load();
  t.phases_marked = first > t0 && collect >= first && t1 >= collect;
  t.wall_s = static_cast<double>(t1 - t0) / 1e9;
  t.setup_s = static_cast<double>(first - t0) / 1e9;
  t.run_phase_s = static_cast<double>(collect - first) / 1e9;
  t.collect_s = static_cast<double>(t1 - collect) / 1e9;
  return t;
}

// ------------------------------------------------------------------ run

int run_mode(const Args& args) {
  const Workload base = make_workload(args.workload, args.seed, args.smoke);
  if (args.run >= base.runs) {
    std::fprintf(stderr, "harmony_perfbench: --run must be below %d\n",
                 base.runs);
    return 2;
  }
  const std::uint64_t seed = sub_seed(args.seed, args.run);
  const Workload w = make_workload(args.workload, seed, args.smoke);

  // The reference kernel runs slow for its first few calls in a process;
  // each side of the run then takes the fastest of three, so a momentary
  // stall does not count as the host's speed.
  const unsigned threads = std::max(1u, w.cfg.num_shard_threads);
  for (int i = 0; i < 8; ++i) reference_kernel_s(threads);
  auto reference = [threads] {
    return std::min({reference_kernel_s(threads), reference_kernel_s(threads),
                     reference_kernel_s(threads)});
  };
  const double ref_before = reference();
  const Usage u0 = process_usage();
  const TimedRun t = timed_run(w.cfg);
  const Usage u1 = process_usage();
  const double ref_after = reference();
  // > 1 when the host ran slower than the reference host.
  const double slow = 0.5 * (ref_before + ref_after) / kReferenceKernelS;

  const RunResult& r = t.result;
  Checks checks;
  checks.add("phases_marked", t.phases_marked);
  check_result(r, w.op_budget, w.cfg.num_shard_threads == 0, "", checks);

  // Raw figures, and the same normalised to the reference host.
  Json host, raw;
  auto rate = [&](const char* name, double v) {
    raw.num(name, v);
    host.num(name, v * slow);
  };
  auto time = [&](const char* name, double v) {
    raw.num(name, v);
    host.num(name, v / slow);
  };
  rate("sim_ops_per_s",
       ratio(static_cast<double>(completed_ops(r, w.op_budget)), t.run_phase_s));
  rate("sim_events_per_s", ratio(static_cast<double>(r.sim_events), t.run_phase_s));
  time("run_wall_s", t.wall_s);
  time("setup_s", t.setup_s);
  time("cpu_s", u1.cpu_s - u0.cpu_s);
  host.num("peak_rss_mb", u1.peak_rss_mb);
  raw.num("peak_rss_mb", u1.peak_rss_mb);

  Json out;
  out.text("workload", w.name)
      .count("seed", args.seed)
      .count("default_seed", w.default_seed)
      .count("runs", static_cast<std::uint64_t>(w.runs))
      .count("run", static_cast<std::uint64_t>(args.run))
      .count("sub_seed", seed)
      .text("mode", "run")
      .flag("correct", checks.all())
      .object("checks", checks.json())
      .object("host", host)
      .object("host_raw", raw)
      .num("host_speed", 1.0 / slow)
      .object("sim", sim_figures(r, w.op_budget))
      .object("fingerprint", fingerprint(r).json())
      .object("build", build_context());
  std::printf("%s\n", out.str().c_str());
  return checks.all() ? 0 : 1;
}

// ---------------------------------------------------------------- trace

/// Metrics a pass cannot measure are still printed (as 0) with the reason.
struct Layers {
  Json values;
  Json notes;
  void set(const std::string& name, double v) { values.num(name, v); }
  void absent(const std::string& name, const std::string& why) {
    values.num(name, 0);
    notes.text(name, why);
  }
};

void net_layers(const RunResult& r, double ops, Layers& l) {
  const auto& n = r.net;
  l.set("net.msgs_per_op", ratio(static_cast<double>(n.total_messages()), ops));
  l.set("net.bytes_per_op", ratio(static_cast<double>(n.total_bytes()), ops));
  l.set("net.cross_dc_frac", ratio(static_cast<double>(n.cross_dc_bytes()),
                                   static_cast<double>(n.total_bytes())));
}

/// Sum of the tracer's accumulators over some event kinds.
Tracer::Acc kinds(const Tracer& t, std::initializer_list<EventKind> ks) {
  Tracer::Acc sum;
  for (const EventKind k : ks) {
    const Tracer::Acc& a = t.kind[static_cast<std::size_t>(k)];
    sum.calls += a.calls;
    sum.self += a.self;
    sum.incl += a.incl;
  }
  return sum;
}

/// One config run `reps` times; host figures are medians.
struct Repeated {
  RunResult result;
  bool deterministic = true;  ///< every repetition had one fingerprint
  double wall_s = 0;
  double cpu_s = 0;
  double vol_ctx_switches = 0;
};

Repeated repeated(const RunConfig& cfg, int reps) {
  Repeated out;
  std::vector<double> wall, cpu, csw;
  for (int i = 0; i < reps; ++i) {
    const Usage u0 = process_usage();
    const TimedRun t = timed_run(cfg);
    const Usage u1 = process_usage();
    if (i == 0) {
      out.result = t.result;
    } else if (!(fingerprint(t.result) == fingerprint(out.result))) {
      out.deterministic = false;
    }
    wall.push_back(t.wall_s);
    cpu.push_back(u1.cpu_s - u0.cpu_s);
    csw.push_back(static_cast<double>(u1.vol_ctx_switches - u0.vol_ctx_switches));
  }
  out.wall_s = median(wall);
  out.cpu_s = median(cpu);
  out.vol_ctx_switches = median(csw);
  return out;
}

/// The shard layer, measured from outside: `w`'s sharded config re-run at
/// its thread count, merged-serial on one thread, and unsharded. Sets the
/// sim.shard.* metrics and adds the checks (names start with `prefix`);
/// returns the N-thread result.
RunResult shard_experiment(const Workload& w, int reps,
                           const std::string& prefix, Checks& checks,
                           Layers& l) {
  RunConfig merged = w.cfg;
  merged.num_shard_threads = 1;
  RunConfig unsharded = w.cfg;
  unsharded.num_shard_threads = 0;
  unsharded.shards_per_dc = 1;
  const Repeated par = repeated(w.cfg, reps);
  const Repeated one = repeated(merged, reps);
  const Repeated ser = repeated(unsharded, reps);
  const RunResult& r = par.result;
  const double threads = static_cast<double>(w.cfg.num_shard_threads);

  check_result(r, w.op_budget, false, prefix + "threads.", checks);
  check_result(one.result, w.op_budget, false, prefix + "merged.", checks);
  check_result(ser.result, w.op_budget, true, prefix + "unsharded.", checks);
  checks.add(prefix + "reruns_identical",
             par.deterministic && one.deterministic && ser.deterministic);
  checks.add(prefix + "threads_match_merged_serial",
             fingerprint(r) == fingerprint(one.result));

  l.set("sim.shard.speedup_vs_merged", ratio(one.wall_s, par.wall_s));
  l.set("sim.shard.merged_overhead", ratio(one.wall_s, ser.wall_s));
  l.set("sim.shard.cpu_util", ratio(par.cpu_s, threads * par.wall_s));
  l.set("sim.shard.vol_ctx_switches_per_kevent",
        ratio(par.vol_ctx_switches, static_cast<double>(r.sim_events) / 1e3));
  l.set("sim.shard.mailbox_spills", static_cast<double>(r.mailbox_spills));
  return r;
}

int trace_serial(const Workload& w, const Args& args) {
  const TimedRun untraced = timed_run(w.cfg);
  const TracedRun tr = run_traced(w.cfg);
  const OracleReplay oracle = replay_oracle(tr);
  const RingReplay ring = replay_ring(w.cfg, tr.keys);
  const double keygen_ns = replay_keygen(w.cfg, tr.keys.size());
  const Tracer& t = tr.tracer;
  const RunResult& r = tr.result;
  const bool assembly_match = fingerprint(r) == fingerprint(untraced.result);
  const double ops =
      static_cast<double>(tr.reads_completed + tr.writes_completed);

  Checks checks;
  checks.add("phases_marked", untraced.phases_marked);
  check_result(untraced.result, w.op_budget, true, "untraced.", checks);
  check_result(r, w.op_budget, true, "traced.", checks);
  if (w.op_budget > 0) {
    checks.add("every_budgeted_op_completed",
               tr.reads_completed + tr.writes_completed == w.op_budget);
  }

  Layers l;
  auto per = [&](const Tracer::Acc& a) {
    return ratio(t.ns(a.self), static_cast<double>(a.calls));
  };
  const std::uint64_t events = r.sim_events;
  l.set("sim.kernel.events", static_cast<double>(events));
  l.set("sim.kernel.closure_events",
        static_cast<double>(events - std::min(events, tr.typed_events)));
  l.set("sim.kernel.self_s", t.ns(t.kernel.self) / 1e9);
  l.set("sim.kernel.ns_per_event",
        ratio(t.ns(t.kernel.self), static_cast<double>(events)));
  if (!w.shard_experiment.empty()) {
    const Workload sw =
        make_workload(w.shard_experiment, sub_seed(args.seed, 0), args.smoke);
    shard_experiment(sw, args.smoke ? 1 : 3, "shard_experiment.", checks, l);
    for (const char* m :
         {"sim.shard.speedup_vs_merged", "sim.shard.merged_overhead",
          "sim.shard.cpu_util", "sim.shard.vol_ctx_switches_per_kevent",
          "sim.shard.mailbox_spills"}) {
      l.notes.text(m, "on the " + w.shard_experiment +
                          " shape, re-run in this pass");
    }
  } else {
    for (const char* m :
         {"sim.shard.speedup_vs_merged", "sim.shard.merged_overhead",
          "sim.shard.cpu_util", "sim.shard.vol_ctx_switches_per_kevent",
          "sim.shard.mailbox_spills"}) {
      l.absent(m, "serial kernel: measured in harmony_ec2's traced pass");
    }
  }

  const Tracer::Acc coord =
      kinds(t, {EventKind::kStartWrite, EventKind::kWriteAck,
                EventKind::kStartRead, EventKind::kReadResponse,
                EventKind::kWriteDeliver, EventKind::kReadDeliver});
  const Tracer::Acc replica =
      kinds(t, {EventKind::kWriteApply, EventKind::kWriteApplied,
                EventKind::kReadServe, EventKind::kReadServed});
  const Tracer::Acc repair =
      kinds(t, {EventKind::kRepairArrive, EventKind::kRepairApply,
                EventKind::kHintDeliver, EventKind::kAntiEntropySweep,
                EventKind::kFault});
  l.set("cluster.coord.events", static_cast<double>(coord.calls));
  l.set("cluster.coord.ns_per_event", per(coord));
  l.set("cluster.replica.events", static_cast<double>(replica.calls));
  l.set("cluster.replica.ns_per_event", per(replica));
  l.set("cluster.repair.events", static_cast<double>(repair.calls));
  l.set("cluster.repair.ns_per_event", per(repair));
  l.set("cluster.replica_ops_per_op",
        ratio(static_cast<double>(tr.replica_ops), ops));
  l.set("cluster.read_repairs_per_kread",
        ratio(static_cast<double>(r.read_repairs),
              static_cast<double>(tr.reads_completed) / 1e3));
  l.set("cluster.ring.lookup_ns", ring.lookup_ns);
  l.set("cluster.ring.walk_ns", ring.walk_ns);
  l.set("cluster.oracle.calls", static_cast<double>(oracle.calls));
  l.set("cluster.oracle.ns_per_call", oracle.ns_per_call);
  l.set("cluster.oracle.replay_ok", oracle.ok ? 1 : 0);

  net_layers(r, ops, l);

  l.set("monitor.hook_calls", static_cast<double>(t.monitor.calls));
  l.set("monitor.hook_ns", per(t.monitor));
  l.set("monitor.snapshot_ns",
        ratio(t.ns(t.snapshot.incl), static_cast<double>(t.snapshot.calls)));

  l.set("core.policy.decisions", static_cast<double>(t.decision.calls));
  l.set("core.policy.decision_ns", per(t.decision));
  l.set("core.policy.tick_ns",
        ratio(t.ns(t.tick.incl), static_cast<double>(t.tick.calls)));
  l.set("core.policy.switches", static_cast<double>(r.policy_switches));
  l.set("core.policy.avg_read_replicas", r.avg_read_replicas);

  const Tracer::Acc issue =
      kinds(t, {EventKind::kClientIssue, EventKind::kOpenLoopArrival});
  l.set("workload.source.keygen_ns", keygen_ns);
  l.set("workload.source.issue.events", static_cast<double>(issue.calls));
  l.set("workload.source.issue.ns_per_event", per(issue));
  if (w.cfg.workload.open_loop.enabled) {
    l.set("workload.source.queue_delay_p99_ms",
          static_cast<double>(r.open_loop.queueing_delay.p99()) / 1e3);
  } else {
    l.absent("workload.source.queue_delay_p99_ms",
             "closed loop: clients hold no arrival queue");
  }

  l.set("workload.runner.construct_s", tr.construct_s);
  l.set("workload.runner.preload_s", tr.preload_s);
  l.set("workload.runner.warmup_s", tr.warmup_s);
  l.set("workload.runner.measure_s", tr.measure_s);
  l.set("workload.runner.collect_s", tr.collect_s);

  l.set("trace.overhead_frac", ratio(tr.wall_s, untraced.wall_s) - 1.0);
  l.set("trace.assembly_match", assembly_match ? 1 : 0);

  Json out;
  out.text("workload", w.name)
      .count("seed", args.seed)
      .count("default_seed", w.default_seed)
      .text("mode", "trace")
      .flag("correct", checks.all())
      .object("checks", checks.json())
      .count("attempted", attempted_ops(r, w.op_budget))
      .count("failed", failed_ops(r))
      .object("layers", l.values)
      .object("notes", l.notes)
      .object("fingerprint", fingerprint(untraced.result).json())
      .object("build", build_context());
  std::printf("%s\n", out.str().c_str());
  return checks.all() ? 0 : 1;
}

int trace_sharded(const Workload& w, const Args& args) {
  Checks checks;
  Layers l;
  const RunResult r = shard_experiment(w, args.smoke ? 1 : 3, "", checks, l);
  const bool sharded_ok = checks.all();

  const char* no_assembly =
      "sharded run: measured through run_experiment only, no traced assembly";
  l.set("sim.kernel.events", static_cast<double>(r.sim_events));
  for (const char* m :
       {"sim.kernel.closure_events", "sim.kernel.self_s",
        "sim.kernel.ns_per_event", "cluster.coord.events",
        "cluster.coord.ns_per_event",
        "cluster.replica.events", "cluster.replica.ns_per_event",
        "cluster.repair.events", "cluster.repair.ns_per_event",
        "cluster.replica_ops_per_op", "cluster.ring.lookup_ns",
        "cluster.ring.walk_ns", "cluster.oracle.calls",
        "cluster.oracle.ns_per_call", "cluster.oracle.replay_ok",
        "monitor.hook_calls", "monitor.hook_ns", "monitor.snapshot_ns",
        "core.policy.decisions", "core.policy.decision_ns",
        "core.policy.tick_ns", "workload.source.keygen_ns",
        "workload.source.issue.events", "workload.source.issue.ns_per_event",
        "workload.runner.preload_s", "workload.runner.warmup_s",
        "trace.overhead_frac"}) {
    l.absent(m, no_assembly);
  }
  // Measured-window reads: the sharded result keeps no whole-run read count.
  l.set("cluster.read_repairs_per_kread",
        ratio(static_cast<double>(r.read_repairs),
              static_cast<double>(r.reads) / 1e3));
  net_layers(r, static_cast<double>(w.op_budget), l);
  l.set("core.policy.switches", static_cast<double>(r.policy_switches));
  l.set("core.policy.avg_read_replicas", r.avg_read_replicas);
  l.absent("workload.source.queue_delay_p99_ms",
           "closed loop: clients hold no arrival queue");

  // Phases from the policy probe: set-up covers construction and preload.
  const TimedRun phases = timed_run(w.cfg);
  l.set("workload.runner.construct_s", phases.setup_s);
  l.set("workload.runner.measure_s", phases.run_phase_s);
  l.set("workload.runner.collect_s", phases.collect_s);
  // No assembly to compare: the flag carries the sharded checks instead.
  l.set("trace.assembly_match", sharded_ok ? 1 : 0);
  l.notes.text("workload.runner.construct_s",
               "construction and preload together (run_experiment phases)");
  l.notes.text("trace.assembly_match",
               "the sharded checks: runs correct, re-runs identical, N "
               "threads match merged-serial");

  Json out;
  out.text("workload", w.name)
      .count("seed", args.seed)
      .count("default_seed", w.default_seed)
      .text("mode", "trace")
      .flag("correct", checks.all())
      .object("checks", checks.json())
      .count("attempted", attempted_ops(r, w.op_budget))
      .count("failed", failed_ops(r))
      .object("layers", l.values)
      .object("notes", l.notes)
      .object("fingerprint", fingerprint(r).json())
      .object("build", build_context());
  std::printf("%s\n", out.str().c_str());
  return checks.all() ? 0 : 1;
}

int trace_mode(const Args& args) {
  const Workload w =
      make_workload(args.workload, sub_seed(args.seed, 0), args.smoke);
  return w.cfg.num_shard_threads > 0 ? trace_sharded(w, args)
                                     : trace_serial(w, args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse(argc, argv);
    // Validate the name before any work.
    perfbench::default_seed(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harmony_perfbench: %s\n", e.what());
    return 2;
  }
  return args.mode == "run" ? perfbench::run_mode(args)
                            : perfbench::trace_mode(args);
}
