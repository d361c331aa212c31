// Sharded parallel execution for one Simulation.
//
// A Simulation can be partitioned into K event shards (the cluster layer lays
// DCs and key ranges over them: cluster/shard_map.h). Each shard owns a full
// two-lane EventQueue, a clock, and everything the handlers it runs will
// touch; shards only interact through *scheduled events* whose network delay
// is at least `lookahead` (the minimum latency floor of any hop that crosses
// shards). That bound is the classic conservative-
// simulation guarantee (Chandy–Misra–Bryant): while every shard's clock sits
// inside the window [T, T + lookahead), no shard can receive a new event
// dated inside that window, so all K shards may run the window concurrently
// with no communication at all.
//
// Determinism is the hard requirement, and it reduces to one rule: the merged
// execution must equal the K-queue serial merge by (time, seq). Three
// mechanisms make that hold bit-for-bit regardless of thread count:
//
//   1. Interleaved seq streams. Shard s draws sequence numbers s, s+K,
//      s+2K, ... (EventQueue::set_seq_stream), so (time, seq) is a strict
//      total order across all shards without any cross-shard coordination.
//   2. Sender-stamped cross-shard events. An event destined for another
//      shard gets its seq from the *sender's* counter at schedule time —
//      exactly the seq it would have received in the serial merge — and
//      rides a fixed-capacity mailbox that the control thread drains into
//      the destination heap at the next window barrier. Heap pop order
//      depends only on (time, seq), so drain order is irrelevant.
//   3. Fences. Operations that touch cross-shard state (fault injection:
//      kill/revive/degrade) register their instant as a fence; the executor
//      never lets a window span a fence and runs the fence instant in
//      merged-serial mode on one thread.
//
// With num_threads == 1 the executor runs everything merged-serial — that IS
// the reference order; 2-thread and 4-thread runs must (and do, see the diff
// harness) reproduce its output byte for byte. Every Simulation starts on a
// one-shard set: seq stream (0, 1) and kNoLookahead, so its single queue runs
// straight to the next fence or the horizon, one window per fence interval.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/time_types.h"
#include "sim/event_queue.h"

namespace harmony::sim {

class Simulation;
struct Shard;

/// The shard whose event this thread is currently dispatching (null between
/// events and on non-worker threads). Simulation::now() and the schedule
/// calls route through it, which is what keeps the whole Cluster/Client API
/// unchanged under sharding.
inline thread_local Shard* tls_current_shard = nullptr;

/// Cross-shard hand-off buffer for one (source, destination) shard pair.
/// Single-writer (the source shard's worker, during a window), single-reader
/// (the control thread, at the barrier) — phase separation through the
/// window barrier replaces atomics. Steady state is allocation-free: entries
/// land in a fixed slab sized at configure time; overflow spills into a
/// growable vector (counted, so benchmarks can see backpressure) rather than
/// dropping or blocking.
class Mailbox {
 public:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    TypedEvent ev;
  };
  static_assert(sizeof(Entry) == 64);

  void configure(std::uint32_t capacity) {
    capacity_ = capacity;
    // lint: allow(hot-path-alloc): one-time slab sizing at configure();
    // steady-state push() only writes into it.
    slab_ = std::make_unique<Entry[]>(capacity);
    count_ = 0;
  }

  void push(SimTime when, std::uint64_t seq, const TypedEvent& ev) {
    if (count_ < capacity_) {
      slab_[count_++] = Entry{when, seq, ev};
    } else {
      // Overflow path only (vector growth) — capacity is the steady-state
      // bound (alloc_guard-pinned); spills are counted as backpressure so
      // runs that hit this are visible.
      spill_.push_back(Entry{when, seq, ev});
      ++spills_;
    }
  }

  /// Drain every entry into `q` (stamped: seqs were allocated by the
  /// sender). Called by the control thread between windows.
  void drain_into(EventQueue& q) {
    for (std::uint32_t i = 0; i < count_; ++i) {
      q.push_typed_stamped(slab_[i].when, slab_[i].seq, slab_[i].ev);
    }
    count_ = 0;
    for (const Entry& e : spill_) q.push_typed_stamped(e.when, e.seq, e.ev);
    spill_.clear();
  }

  bool empty() const { return count_ == 0 && spill_.empty(); }
  std::uint64_t spills() const { return spills_; }

 private:
  std::unique_ptr<Entry[]> slab_;
  std::vector<Entry> spill_;
  std::uint32_t capacity_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t spills_ = 0;
};

/// One event shard: a queue, a clock, and the id the cluster layer uses to
/// route. All fields are owned by exactly one thread at any time (the
/// worker assigned to this shard during a window; the control thread
/// otherwise) — the window barrier transfers ownership.
struct Shard {
  EventQueue queue;
  SimTime now = 0;
  std::uint64_t current_seq = 0;  ///< seq of the event being dispatched
  std::uint64_t events_processed = 0;
  std::uint32_t id = 0;
};

/// Called by the control thread at every window barrier (and once after the
/// run drains), with all events strictly before `safe_time` executed. The
/// cluster layer applies its deferred per-shard oracle logs here.
using BarrierHook = void (*)(void* ctx, SimTime safe_time);

/// The windowed executor. Owned by Simulation: a one-shard set from its
/// constructor, replaced by Simulation::configure_shards().
class ShardSet {
 public:
  /// The lookahead of a set that never carries a cross-shard event (the
  /// default one-shard set): windows end only at fences and the horizon.
  static constexpr SimDuration kNoLookahead =
      std::numeric_limits<SimDuration>::max();

  ShardSet(Simulation& sim, std::uint32_t count, SimDuration lookahead,
           unsigned num_threads, std::uint32_t mailbox_capacity);

  std::uint32_t count() const { return static_cast<std::uint32_t>(shards_.size()); }
  Shard& shard(std::uint32_t i) { return *shards_[i]; }
  unsigned num_threads() const { return num_threads_; }
  SimDuration lookahead() const { return lookahead_; }

  /// Route one typed event. `from` is the scheduling shard (whose queue
  /// allocates the seq); `ev.shard` names the destination.
  void route_event(Shard& from, SimTime when, const TypedEvent& ev) {
    const std::uint64_t seq = from.queue.alloc_seq();
    Shard& dest = *shards_[ev.shard];
    if (&dest == &from || !parallel_phase_) {
      dest.queue.push_typed_stamped(when, seq, ev);
      return;
    }
    // Mid-window cross-shard send: the lookahead bound must hold, or the
    // destination could have already run past `when` — a determinism bug at
    // the schedule site, not something to paper over.
    HARMONY_CHECK_MSG(when > window_last_,
                      "cross-shard event inside the lookahead window");
    mailbox(from.id, dest.id).push(when, seq, ev);
  }

  /// Fault instants (and any other cross-shard-state mutation) must execute
  /// merged-serial: no window will span `t`. Setup-time / fence-time only.
  void register_fence(SimTime t);

  void set_barrier_hook(BarrierHook hook, void* ctx) {
    barrier_hook_ = hook;
    barrier_ctx_ = ctx;
  }

  /// Run until every queue drains or `horizon` passes, window by window.
  /// Each window runs merged-serial on the calling thread when there is one
  /// worker, and in parallel slices otherwise; identical output either way.
  /// Returns the max shard clock when drained, else the horizon.
  SimTime run(SimTime horizon);

  std::uint64_t events_processed() const;
  std::uint64_t mailbox_spills() const;
  bool idle() const;

 private:
  friend class Simulation;

  Mailbox& mailbox(std::uint32_t src, std::uint32_t dst) {
    return mailboxes_[src * count() + dst];
  }

  /// Run events from all shards in strict (time, seq) order while their time
  /// is <= `last`; stops when the next event is later. This is both the
  /// single-worker window step and the fence-instant mode.
  void run_merged_serial(SimTime last);

  /// One worker's share of a parallel window: run every shard s with
  /// s % num_workers == worker through window_last_.
  void run_window_slice(unsigned worker);

  void drain_mailboxes();
  /// Earliest pending (when, seq) across all shards; false when drained.
  bool peek_global(SimTime& when, std::uint64_t& seq, std::uint32_t& which) const;

  Simulation& sim_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Mailbox> mailboxes_;  // count*count, row = source shard
  std::vector<SimTime> fences_;     // sorted ascending
  SimDuration lookahead_;
  unsigned num_threads_;
  BarrierHook barrier_hook_ = nullptr;
  void* barrier_ctx_ = nullptr;

  // Window state, written by the control thread strictly before the barrier
  // workers cross to read it (std::barrier gives the happens-before edge).
  SimTime window_last_ = 0;  ///< inclusive end of the running window
  bool parallel_phase_ = false;
  bool done_ = false;
};

}  // namespace harmony::sim
