#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "core/harmony.h"
#include "core/static_policy.h"
#include "net/latency_model.h"

namespace perfbench {

using namespace harmony;

namespace {

/// harmony_ec2: the paper's §IV-A EC2 setup (bench_harmony_ec2's shape).
/// Closed loop, 48 clients per DC, adaptive Harmony at 40% tolerance.
Workload harmony_ec2(bool smoke) {
  Workload w;
  auto& cfg = w.cfg;
  cfg.label = "harmony_ec2";
  cfg.cluster.node_count = 20;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = workload::WorkloadSpec::heavy_read_update();
  cfg.workload.op_count = smoke ? 20'000 : 300'000;
  cfg.workload.record_count = 250;
  cfg.workload.clients_per_dc = 48;
  cfg.policy = core::harmony_policy(0.40);
  cfg.policy_tick = 200 * kMillisecond;
  cfg.warmup = 600 * kMillisecond;
  w.op_budget = cfg.workload.op_count;
  w.runs = smoke ? 2 : 16;
  w.shard_experiment = "sharded_1dc_4x";
  return w;
}

/// openloop_2m_users: open-loop Poisson arrivals under a diurnal curve over
/// two million simulated users, read-mostly over a million records. The
/// 5,000 ops/s mean keeps the diurnal peak under the 8-node capacity.
Workload openloop_2m_users(bool smoke) {
  Workload w;
  auto& cfg = w.cfg;
  cfg.label = "openloop_2m_users";
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = workload::WorkloadSpec::ycsb_b();
  cfg.workload.record_count = smoke ? 20'000 : 1'000'000;
  auto& ol = cfg.workload.open_loop;
  ol.enabled = true;
  ol.process = workload::ArrivalProcess::kPoisson;
  ol.curve = workload::RateCurve::kDiurnal;
  ol.rate_per_s = 4'000;
  ol.user_count = smoke ? 50'000 : 2'000'000;
  ol.duration = smoke ? 3 * kSecond : 60 * kSecond;
  ol.diurnal_period = ol.duration;
  ol.drain_grace = smoke ? 1 * kSecond : 5 * kSecond;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = smoke ? 500 * kMillisecond : 1 * kSecond;
  w.runs = smoke ? 2 : 12;
  return w;
}

/// sharded_1dc_4x: one DC split into four key-range shards
/// (BM_KeyRangeShardedThroughput's shape), one worker thread per shard up
/// to the host's core count.
Workload sharded_1dc_4x(bool smoke) {
  Workload w;
  auto& cfg = w.cfg;
  cfg.label = "sharded_1dc_4x";
  cfg.cluster.node_count = 16;
  cfg.cluster.dc_count = 1;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.cluster.latency.cross_dc = {msec(2), 0.3, msec(1)};
  // Intra-DC legs cross shards under key-range sharding, so the intra-DC
  // floors carry the conservative lookahead.
  cfg.cluster.latency.same_rack.floor = usec(150);
  cfg.cluster.latency.same_dc.floor = usec(150);
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.op_count = smoke ? 10'000 : 100'000;
  cfg.workload.record_count = 10'000;
  cfg.workload.clients_per_dc = 32;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 100 * kMillisecond;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  cfg.num_shard_threads = std::min(4u, cores);
  cfg.shards_per_dc = 4;
  w.op_budget = cfg.workload.op_count;
  w.runs = smoke ? 2 : 12;
  return w;
}

struct Entry {
  const char* name;
  std::uint64_t seed;
  Workload (*make)(bool smoke);
};

constexpr Entry kEntries[] = {
    {"harmony_ec2", 42, &harmony_ec2},
    {"openloop_2m_users", 42, &openloop_2m_users},
    {"sharded_1dc_4x", 7, &sharded_1dc_4x},
};

const Entry& find(const std::string& name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return e;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Entry& e : kEntries) v.emplace_back(e.name);
    return v;
  }();
  return names;
}

std::uint64_t default_seed(const std::string& name) { return find(name).seed; }

std::uint64_t sub_seed(std::uint64_t seed, int i) {
  // Scrambled, not consecutive: TokenRing mixes its seed with small vnode
  // indices by XOR, so seeds that differ only in their low bits can build
  // the same ring, and the pooled runs would not be independent.
  std::uint64_t state = seed * 1024 + static_cast<std::uint64_t>(i);
  return splitmix64(state);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  const Entry& e = find(name);
  Workload w = e.make(smoke);
  w.name = e.name;
  w.default_seed = e.seed;
  w.cfg.seed = seed;
  return w;
}

}  // namespace perfbench
