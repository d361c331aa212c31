#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <thread>

namespace perfbench {

using harmony::workload::RunResult;

// ---------------------------------------------------------------- JSON out

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit of a double, so two runs compare exactly.
std::string exact(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Json::field(const std::string& key, std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
}
Json& Json::num(const std::string& key, double v) {
  field(key, exact(v));
  return *this;
}
Json& Json::count(const std::string& key, std::uint64_t v) {
  field(key, std::to_string(v));
  return *this;
}
Json& Json::flag(const std::string& key, bool v) {
  field(key, v ? "true" : "false");
  return *this;
}
Json& Json::text(const std::string& key, const std::string& v) {
  field(key, quoted(v));
  return *this;
}
Json& Json::object(const std::string& key, const Json& v) {
  field(key, v.str());
  return *this;
}
Json& Json::list(const std::string& key, const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += exact(v[i]);
  }
  field(key, out + "]");
  return *this;
}
std::string Json::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// --------------------------------------------------------- host counters

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  u.vol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
  return u;
}

double reference_kernel_s(unsigned threads) {
  constexpr int kWindows = 1'000;
  constexpr int kStepsPerWindow = 340;
  threads = std::max(1u, threads);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads));
  std::int64_t t0 = 0;
  auto copy = [&sync, &t0](bool timer) {
    std::vector<std::uint64_t> table(std::size_t{1} << 17);  // 1 MiB
    std::vector<std::uint64_t> storage;
    storage.reserve(65'537);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap(std::greater<>{}, std::move(storage));
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    sync.arrive_and_wait();  // every copy is set up
    if (timer) t0 = wall_now_ns();
    for (int i = 0; i < 65'536; ++i) heap.push(next() >> 16);
    std::uint64_t sum = 0;
    for (int w = 0; w < kWindows; ++w) {
      for (int i = 0; i < kStepsPerWindow; ++i) {
        const std::uint64_t top = heap.top();
        heap.pop();
        heap.push(top + (next() & 0xFFFF));
        std::uint64_t& slot = table[(x * 0x9E3779B97F4A7C15ULL) >> 47];
        sum += slot;
        slot = top;
      }
      sync.arrive_and_wait();
    }
    keep(sum);
  };
  {
    std::vector<std::jthread> workers;
    for (unsigned i = 1; i < threads; ++i) workers.emplace_back(copy, false);
    copy(true);
  }  // joins the workers
  return static_cast<double>(wall_now_ns() - t0) / 1e9;
}

// ------------------------------------------------- fingerprint and checks

Json Fingerprint::json() const {
  Json j;
  for (const auto& [k, v] : fields) j.text(k, v);
  return j;
}

Fingerprint fingerprint(const RunResult& r) {
  Fingerprint f;
  auto add = [&](const char* k, std::uint64_t v) {
    f.fields.emplace_back(k, std::to_string(v));
  };
  add("sim_events", r.sim_events);
  add("ops", r.ops);
  add("reads", r.reads);
  add("writes", r.writes);
  add("errors", r.errors);
  add("stale_reads", r.stale_reads);
  add("fresh_reads", r.fresh_reads);
  add("read_p50_us", static_cast<std::uint64_t>(r.read_latency.median()));
  add("read_p99_us", static_cast<std::uint64_t>(r.read_latency.p99()));
  add("write_p50_us", static_cast<std::uint64_t>(r.write_latency.median()));
  add("write_p99_us", static_cast<std::uint64_t>(r.write_latency.p99()));
  add("read_repairs", r.read_repairs);
  add("net_messages", r.net.total_messages());
  add("policy_switches", r.policy_switches);
  add("ol_arrivals", r.open_loop.arrivals);
  add("ol_completed", r.open_loop.completed);
  add("ol_shed_queue_full", r.open_loop.shed_queue_full);
  f.fields.emplace_back("bill_usd", exact(r.bill.total()));
  f.fields.emplace_back("throughput", exact(r.throughput));
  return f;
}

bool Checks::all() const {
  for (const auto& [name, ok] : items) {
    if (!ok) return false;
  }
  return !items.empty();
}

Json Checks::json() const {
  Json j;
  for (const auto& [name, ok] : items) j.flag(name, ok);
  return j;
}

void check_result(const RunResult& r, std::uint64_t op_budget, bool serial,
                  const std::string& prefix, Checks& checks) {
  auto check = [&](const char* name, bool ok) { checks.add(prefix + name, ok); };
  check("ops_are_reads_plus_writes",
             r.ops > 0 && r.ops == r.reads + r.writes);
  check("every_measured_op_timed_or_failed",
             r.read_latency.count() + r.write_latency.count() + r.errors ==
                 r.ops);
  const std::uint64_t judged = r.stale_reads + r.fresh_reads;
  // Serial runs judge each successful measured read as it completes;
  // sharded runs report the oracle's whole-run totals, warm-up included.
  check("reads_judged_by_oracle",
             serial ? judged == r.read_latency.count()
                    : judged >= r.read_latency.count());
  check("events_ran", r.sim_events > 0);
  if (op_budget > 0) {
    check("measured_ops_within_budget", r.ops <= op_budget);
  } else {
    const auto& ol = r.open_loop;
    check("openloop_arrival_ledger",
               ol.arrivals == ol.completed + ol.shed_queue_full +
                                  ol.queued_at_end + ol.in_flight_at_end);
    check("openloop_issue_ledger",
               ol.issued == ol.completed + ol.in_flight_at_end);
    check("measured_ops_within_completed", r.ops <= ol.completed);
  }
}

std::uint64_t attempted_ops(const RunResult& r, std::uint64_t op_budget) {
  return op_budget > 0 ? op_budget : r.open_loop.arrivals;
}

std::uint64_t failed_ops(const RunResult& r) {
  return r.timeouts + r.unavailable + r.sheds + r.open_loop.shed_queue_full;
}

namespace {

/// Quantiles of `h` in ms at `n` evenly spaced ranks, each interpolated
/// linearly by rank inside the histogram bucket that holds it.
/// LatencyHistogram::percentile returns the bucket's upper bound, a ~3% step
/// that would make the quantiles of different seeds tie.
std::vector<double> quantile_grid_ms(const harmony::LatencyHistogram& h,
                                     int n) {
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  if (h.count() == 0) return out;
  // Largest rank share (percent) whose percentile still satisfies `in`.
  auto last_share = [&h](auto in) {
    double lo = 0, hi = 100;
    for (int i = 0; i < 48; ++i) {
      const double mid = 0.5 * (lo + hi);
      (in(h.percentile(mid)) ? lo : hi) = mid;
    }
    return lo;
  };
  harmony::SimDuration upper = -1, lower = 0;
  double below = 0, through = 0;
  for (int i = 0; i < n; ++i) {
    const double p = 100.0 * (i + 0.5) / n;
    const harmony::SimDuration u = h.percentile(p);
    if (u != upper) {  // a new bucket: find its rank span once
      upper = u;
      below = last_share([u](harmony::SimDuration v) { return v < u; });
      through = last_share([u](harmony::SimDuration v) { return v <= u; });
      lower = h.percentile(below);
    }
    double us = static_cast<double>(upper);
    if (through > below && lower < upper) {
      us = static_cast<double>(lower) + static_cast<double>(upper - lower) *
                                            (p - below) / (through - below);
    }
    out[static_cast<std::size_t>(i)] = us / 1e3;
  }
  return out;
}

}  // namespace

Json sim_figures(const RunResult& r, std::uint64_t op_budget) {
  Json j;
  j.num("measured_ops", r.throughput * r.duration_s);
  j.num("measured_s", r.duration_s);
  j.count("reads_timed", r.read_latency.count());
  j.count("writes_timed", r.write_latency.count());
  j.list("read_ms", quantile_grid_ms(r.read_latency, kQuantileGrid));
  j.list("write_ms", quantile_grid_ms(r.write_latency, kQuantileGrid));
  j.count("stale", r.stale_reads);
  j.count("judged", r.stale_reads + r.fresh_reads);
  j.count("completed", op_budget > 0 ? op_budget : r.open_loop.completed);
  j.count("attempted", attempted_ops(r, op_budget));
  j.count("failed", failed_ops(r));
  j.num("bill_usd", r.bill.total());
  return j;
}

harmony::policy::PolicyFactory probed(harmony::policy::PolicyFactory factory,
                                      PhaseMarks* marks, Tracer* tracer) {
  return [factory = std::move(factory), marks,
          tracer](const harmony::policy::PolicyInit& init)
             -> std::unique_ptr<harmony::policy::ConsistencyPolicy> {
    return std::make_unique<PhaseProbe>(factory(init), marks, tracer);
  };
}

}  // namespace perfbench
