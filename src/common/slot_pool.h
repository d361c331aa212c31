// Free-listed slot pool with generation-checked handles.
//
// The cluster request path keeps one in-flight record per client request; a
// std::unordered_map pays a node allocation plus hashing on every touch. This
// pool mirrors sim::EventQueue's design: records live in a chunked slab that
// never relocates (growth appends chunks), freed slots go on a LIFO free list,
// and a Handle is a {slot, generation} pair. Releasing a slot bumps its
// generation, so a handle captured by a late callback (a timeout firing after
// its request completed, an ack racing a kill) dereferences to nullptr instead
// of a recycled occupant — the same "id not found" semantics the map gave,
// without the hash or the heap.
//
// Steady state performs zero allocations: once the slab has grown to the peak
// concurrent-request count, acquire/release is a free-list pop/push.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace harmony {

template <typename T>
class SlotPool {
 public:
  /// Trivially copyable; safe to capture by value in event callbacks. A
  /// default-constructed handle never resolves.
  struct Handle {
    std::uint32_t slot = kNil;
    std::uint32_t generation = 0;
  };

  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  /// Take a fresh (default-state) record; valid until release().
  std::pair<Handle, T*> acquire() {
    std::uint32_t s;
    if (free_head_ != kNil) {
      s = free_head_;
      free_head_ = slot(s).next_free;
    } else {
      if ((slot_count_ & kChunkMask) == 0) {
        // lint: allow(hot-path-alloc): chunk growth is warm-up-only; steady
        // state reuses the free list (alloc_guard-pinned).
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
      s = slot_count_++;
    }
    ++live_;
    return {Handle{s, slot(s).generation}, &slot(s).value};
  }

  /// The record for `h`, or nullptr if the slot was released (and possibly
  /// recycled) since: the generation check makes stale handles inert.
  T* get(Handle h) {
    if (h.slot >= slot_count_ || slot(h.slot).generation != h.generation) {
      return nullptr;
    }
    return &slot(h.slot).value;
  }

  /// Release a *live* handle: resets the record to default state (dropping
  /// captured callbacks promptly, as the map's erase did), invalidates every
  /// outstanding copy of the handle, and recycles the slot. Types that define
  /// `reset_for_reuse()` reset in place — cheaper than constructing and
  /// move-assigning a default temporary on the request hot path.
  void release(Handle h) {
    HARMONY_CHECK_MSG(h.slot < slot_count_ &&
                          slot(h.slot).generation == h.generation,
                      "SlotPool::release of a stale handle");
    Slot& sl = slot(h.slot);
    if constexpr (requires(T& t) { t.reset_for_reuse(); }) {
      sl.value.reset_for_reuse();
    } else {
      sl.value = T{};
    }
    ++sl.generation;
    sl.next_free = free_head_;
    free_head_ = h.slot;
    --live_;
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return slot_count_; }

 private:
  struct Slot {
    T value{};
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNil;
  };
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  Slot& slot(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
};

}  // namespace harmony
