#include "sim/shard.h"

#include <algorithm>
#include <barrier>
#include <exception>
#include <limits>
#include <optional>

#include "sim/simulation.h"

namespace harmony::sim {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

SimTime saturating_add(SimTime t, SimDuration d) {
  return (t > kNever - d) ? kNever : t + d;
}

}  // namespace

ShardSet::ShardSet(Simulation& sim, std::uint32_t count, SimDuration lookahead,
                   unsigned num_threads, std::uint32_t mailbox_capacity)
    : sim_(sim), lookahead_(lookahead), num_threads_(num_threads) {
  HARMONY_CHECK(count >= 1 && count <= 255);  // TypedEvent::shard is a u8
  HARMONY_CHECK_MSG(lookahead > 0, "conservative lookahead must be positive");
  HARMONY_CHECK(num_threads >= 1);
  shards_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // lint: allow(hot-path-alloc): construction-time shard array; the run
    // loop only indexes it.
    auto sh = std::make_unique<Shard>();
    sh->id = i;
    // Interleaved streams: shard i draws seqs i, i+K, i+2K, ... With K == 1
    // this is the plain (0, 1) stream.
    sh->queue.set_seq_stream(i, count);
    shards_.push_back(std::move(sh));
  }
  mailboxes_.resize(static_cast<std::size_t>(count) * count);
  for (std::uint32_t s = 0; s < count; ++s) {
    for (std::uint32_t d = 0; d < count; ++d) {
      if (s != d) mailbox(s, d).configure(mailbox_capacity);
    }
  }
}

void ShardSet::register_fence(SimTime t) {
  HARMONY_CHECK_MSG(!parallel_phase_,
                    "fences cannot be registered from inside a window");
  fences_.insert(std::lower_bound(fences_.begin(), fences_.end(), t), t);
}

bool ShardSet::peek_global(SimTime& when, std::uint64_t& seq,
                           std::uint32_t& which) const {
  bool any = false;
  for (const auto& sh : shards_) {
    SimTime w;
    std::uint64_t s;
    if (!sh->queue.peek_next(w, s)) continue;
    if (!any || w < when || (w == when && s < seq)) {
      when = w;
      seq = s;
      which = sh->id;
      any = true;
    }
  }
  return any;
}

namespace {
/// Scoped "this thread is executing shard s" marker; Simulation::now() and
/// the schedule calls route through it.
struct TlsShardScope {
  explicit TlsShardScope(Shard& s) { tls_current_shard = &s; }
  ~TlsShardScope() { tls_current_shard = nullptr; }
};

/// Run the head event of `sh` if its time is <= bound.
template <typename Dispatch>
EventQueue::PopResult run_head(Shard& sh, SimTime bound, Dispatch& dispatch) {
  return sh.queue.run_before(
      bound,
      [&sh](SimTime when, std::uint64_t seq) {
        HARMONY_CHECK_MSG(when >= sh.now, "shard clock went backwards");
        sh.now = when;
        sh.current_seq = seq;
        ++sh.events_processed;
      },
      dispatch);
}

/// Run every event of `sh` with time <= bound, in (time, seq) order.
template <typename Dispatch>
void run_shard_until(Shard& sh, SimTime bound, Dispatch& dispatch) {
  TlsShardScope scope(sh);
  while (run_head(sh, bound, dispatch) == EventQueue::PopResult::kEvent) {
  }
}
}  // namespace

void ShardSet::run_merged_serial(SimTime last) {
  const auto dispatch = [this](const TypedEvent& ev) { sim_.dispatch(ev); };
  if (count() == 1) {
    // One shard's own (time, seq) order is the merge.
    run_shard_until(*shards_[0], last, dispatch);
    return;
  }
  SimTime when;
  std::uint64_t seq;
  std::uint32_t which;
  while (peek_global(when, seq, which) && when <= last) {
    Shard& sh = *shards_[which];
    TlsShardScope scope(sh);
    // Exactly one event: the bound `when` admits only the global head (plus
    // same-instant followers it may schedule, which the next peek re-orders
    // against all shards).
    const auto r = run_head(sh, when, dispatch);
    HARMONY_CHECK(r == EventQueue::PopResult::kEvent);
  }
}

void ShardSet::run_window_slice(unsigned worker) {
  const auto dispatch = [this](const TypedEvent& ev) { sim_.dispatch(ev); };
  const unsigned stride = std::min<unsigned>(num_threads_, count());
  for (std::uint32_t s = worker; s < count(); s += stride) {
    run_shard_until(*shards_[s], window_last_, dispatch);
  }
}

void ShardSet::drain_mailboxes() {
  for (std::uint32_t src = 0; src < count(); ++src) {
    for (std::uint32_t dst = 0; dst < count(); ++dst) {
      if (src != dst) mailbox(src, dst).drain_into(shards_[dst]->queue);
    }
  }
}

SimTime ShardSet::run(SimTime horizon) {
  const auto flush = [this](SimTime safe) {
    if (barrier_hook_ != nullptr) barrier_hook_(barrier_ctx_, safe);
  };

  // With one worker every window runs merged-serial on this thread; with
  // more, workers 1.. park at the gate between windows. A handler that
  // throws (a failed HARMONY_CHECK) must not strand the pool: each worker
  // catches into its own slot and still arrives at the window's closing
  // gate, the control thread stops after that gate, releases and joins the
  // pool, and rethrows the lowest-numbered worker's exception.
  const unsigned workers = std::min<unsigned>(num_threads_, count());
  std::optional<std::barrier<>> gate;
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> failed;  // one slot per worker
  const auto run_slice = [this, &failed](unsigned w) {
    try {
      run_window_slice(w);
    } catch (...) {
      failed[w] = std::current_exception();
    }
  };
  if (workers > 1) {
    gate.emplace(workers);
    failed.resize(workers);
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
      pool.emplace_back([this, &gate, &run_slice, w] {
        while (true) {
          gate->arrive_and_wait();  // window published (or done)
          if (done_) return;
          run_slice(w);
          gate->arrive_and_wait();  // window complete
        }
      });
    }
  }

  done_ = false;
  // Every throw below happens between windows, with the pool parked at the
  // publish gate.
  std::exception_ptr failure;
  try {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t which;
    while (peek_global(when, seq, which) && when <= horizon) {
      const auto fence =
          std::lower_bound(fences_.begin(), fences_.end(), when);
      if (fence != fences_.end() && *fence == when) {
        // Fence instant: cross-shard state may be mutated, so run the whole
        // instant merged-serial on this thread (workers stay parked at the
        // window gate).
        run_merged_serial(when);
        flush(saturating_add(when, 1));
        continue;
      }
      // The window is [when, last]: one lookahead wide, cut short by the
      // next fence and the horizon. Barrier consumers (the deferred
      // oracle/monitor logs, fenced policy ticks) see the same flush(safe)
      // sequence for every worker count, so a fenced handler observes the
      // same applied prefix of deferred state.
      SimTime last = std::min(horizon, saturating_add(when, lookahead_ - 1));
      if (fence != fences_.end()) last = std::min(last, *fence - 1);
      if (workers == 1) {
        run_merged_serial(last);
      } else {
        window_last_ = last;
        parallel_phase_ = true;
        gate->arrive_and_wait();
        run_slice(0);
        gate->arrive_and_wait();
        parallel_phase_ = false;
        for (const std::exception_ptr& e : failed) {
          if (e) std::rethrow_exception(e);
        }
        drain_mailboxes();
      }
      flush(saturating_add(last, 1));
    }
  } catch (...) {
    failure = std::current_exception();
  }
  if (workers > 1) {
    done_ = true;
    gate->arrive_and_wait();
    for (auto& t : pool) t.join();
  }
  if (failure) std::rethrow_exception(failure);
  flush(kNever);
  SimTime end = 0;
  for (const auto& sh : shards_) end = std::max(end, sh->now);
  return idle() ? end : horizon;
}

std::uint64_t ShardSet::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->events_processed;
  return n;
}

std::uint64_t ShardSet::mailbox_spills() const {
  std::uint64_t n = 0;
  for (const Mailbox& m : mailboxes_) n += m.spills();
  return n;
}

bool ShardSet::idle() const {
  for (const auto& sh : shards_) {
    if (!sh->queue.empty()) return false;
  }
  for (const Mailbox& m : mailboxes_) {
    if (!m.empty()) return false;
  }
  return true;
}

}  // namespace harmony::sim
