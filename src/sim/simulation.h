// Deterministic discrete-event simulation kernel.
//
// One (time, seq) event queue, run on the calling thread: same-instant
// events run in scheduling order, which is what lets every experiment in the
// reproduction be replayed from a seed. Parallelism happens one level up:
// independent Simulation instances on a thread pool (workload::SweepRunner,
// multi-seed benches, perfbench's one-process-per-run pools).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "sim/event_queue.h"

namespace harmony::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1)
      : master_rng_(seed), seed_(seed) {}

  /// Current simulation time: the dispatching event's time inside a handler,
  /// the last run's end time between runs.
  SimTime now() const { return now_; }
  std::uint64_t seed() const { return seed_; }

  /// Master RNG; entities should fork substreams at construction time.
  Rng& rng() { return master_rng_; }
  Rng fork_rng(std::uint64_t salt) { return master_rng_.fork(salt); }

  /// Schedule fn at now()+delay (delay < 0 is clamped to 0).
  EventHandle schedule(SimDuration delay, EventFn fn) {
    if (delay < 0) delay = 0;
    return queue_.push(now_ + delay, std::move(fn));
  }

  /// Schedule fn at absolute time t (>= now()).
  EventHandle schedule_at(SimTime t, EventFn fn) {
    HARMONY_CHECK_MSG(t >= now_, "cannot schedule into the past");
    return queue_.push(t, std::move(fn));
  }

  // ---- typed hot lane ------------------------------------------------------
  // Fixed-shape POD events dispatched through the domain's registered
  // EventDispatchFn (see sim/event.h). Non-cancellable, so no handle.

  /// Schedule a typed event at now()+delay (delay < 0 is clamped to 0).
  void schedule_event(SimDuration delay, const TypedEvent& ev) {
    if (delay < 0) delay = 0;
    queue_.push_typed(now_ + delay, ev);
  }

  /// Schedule a typed event at absolute time t (>= now()).
  void schedule_event_at(SimTime t, const TypedEvent& ev) {
    HARMONY_CHECK_MSG(t >= now_, "cannot schedule into the past");
    queue_.push_typed(t, ev);
  }

  /// Register the dispatcher for one event domain (idempotent; subsystems
  /// re-register freely — all instances of a domain share one function).
  void set_event_dispatcher(EventDomain domain, EventDispatchFn fn) {
    dispatchers_[static_cast<std::size_t>(domain)] = fn;
  }

  /// Run until the queue drains or `horizon` passes (events at t > horizon
  /// stay queued; now() is advanced to horizon if it was reached). The clock
  /// never moves backwards: a drained run ends at the later of the previous
  /// now() and the last executed event.
  void run_until(SimTime horizon) {
    const auto on_event = [this](SimTime when) {
      now_ = when;
      ++events_processed_;
    };
    const auto dispatch = [this](const TypedEvent& ev) {
      const EventDispatchFn fn = dispatchers_[event_domain_index(ev.kind)];
      HARMONY_CHECK_MSG(fn != nullptr,
                        "typed event fired with no dispatcher for its domain");
      fn(ev);
    };
    while (queue_.run_before(horizon, on_event, dispatch) ==
           EventQueue::PopResult::kEvent) {
    }
    if (!queue_.empty()) now_ = std::max(now_, horizon);
  }

  /// Run until the queue drains.
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  std::uint64_t events_processed() const { return events_processed_; }
  bool idle() const { return queue_.empty(); }

 private:
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  Rng master_rng_;
  std::uint64_t seed_;
  EventDispatchFn dispatchers_[kEventDomains] = {};
  EventQueue queue_;
};

/// Repeating timer helper: schedules fn every `period` until cancelled or the
/// owner Simulation drains. fn sees the tick time via sim.now(). stop() and
/// start() are safe from inside the callback itself: each tick runs a
/// moved-out copy of the callable (so start() may replace fn_ mid-tick) and
/// carries its start()-epoch (so a restart orphans the old cadence instead
/// of double-arming).
class PeriodicTimer {
 public:
  PeriodicTimer() = default;

  void start(Simulation& simulation, SimDuration period, EventFn fn) {
    HARMONY_CHECK(period > 0);
    stop();
    sim_ = &simulation;
    period_ = period;
    fn_ = std::move(fn);
    ++epoch_;
    arm();
  }

  void stop() {
    handle_.cancel();
    sim_ = nullptr;
  }

  bool running() const { return sim_ != nullptr; }

 private:
  void arm() {
    handle_ = sim_->schedule(period_, [this, epoch = epoch_] { fire(epoch); });
  }

  void fire(std::uint64_t epoch) {
    if (sim_ == nullptr || epoch != epoch_) return;
    EventFn fn = std::move(fn_);  // this tick owns the callable while it runs
    fn();
    if (sim_ != nullptr && epoch == epoch_) {  // neither stopped nor restarted
      fn_ = std::move(fn);
      arm();
    }
  }

  Simulation* sim_ = nullptr;
  SimDuration period_ = 0;
  std::uint64_t epoch_ = 0;
  EventFn fn_;
  EventHandle handle_;
};

}  // namespace harmony::sim
