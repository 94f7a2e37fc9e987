#pragma once
/// \file
/// Cancellable priority queue of timestamped events with deterministic FIFO
/// tie-breaking: events at equal times fire in scheduling order, so simulations
/// are bit-reproducible given the same RNG streams.
///
/// Storage is pooled: callbacks live in a slot slab recycled across pushes
/// (and, via clear(), across Monte-Carlo replications), and one binary heap
/// holds plain (time, serial, slot) records. The per-event path — push(),
/// pop(), next_time() — is defined in this header so that it inlines into the
/// simulator's loop: push() constructs the callable directly in its slot, and
/// the heap orders records through a function object the compiler inlines.
///
/// Almost every event schedules its own successor, so the two halves of that
/// hold are fused: pop() leaves the fired record at the heap root, and the
/// callback's first push() overwrites it and sifts down once from the root,
/// stopping as soon as neither child is earlier. A callback that schedules
/// nothing costs one sift, as before: the next pop() drops the record.
/// See docs/ARCHITECTURE.md, "Event memory model".

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_callback.hpp"
#include "util/error.hpp"

namespace lbsim::des {

/// Opaque handle for cancelling a scheduled event. Default-constructed handles
/// are invalid and safe to cancel (no-op).
class EventId {
 public:
  EventId() = default;
  [[nodiscard]] bool valid() const noexcept { return serial_ != 0; }

 private:
  friend class EventQueue;
  EventId(std::uint64_t serial, std::uint32_t slot) noexcept
      : serial_(serial), slot_(slot) {}
  std::uint64_t serial_ = 0;
  std::uint32_t slot_ = 0;
};

/// Binary min-heap on (time, serial) over a pooled slot slab. Cancellation is
/// lazy — the heap record stays behind and is skipped on pop — but the slot
/// (and its callback) is released immediately, and the heap is compacted when
/// dead records outnumber live events, so long churny runs cannot accumulate
/// unbounded garbage.
class EventQueue {
 public:
  using Callback = SmallCallback;

  struct Entry {
    double time = 0.0;
    std::uint64_t serial = 0;
    Callback callback;
  };

  /// Lifetime instrumentation counters. Cumulative across clear() — a reused
  /// simulator's stats cover every replication it ran — and free to maintain
  /// (a handful of integer ops on paths that already touch the same lines).
  struct Stats {
    std::uint64_t scheduled = 0;    ///< push() calls
    std::uint64_t popped = 0;       ///< pop() calls (events fired)
    std::uint64_t cancelled = 0;    ///< successful cancel() calls
    std::uint64_t compactions = 0;  ///< heap rebuilds (corpse sweeps)
    std::uint64_t max_depth = 0;    ///< live-event high-water mark
  };

  /// Schedules `fn` at absolute time `time` (finite, >= 0). `fn` is any
  /// `void()` callable, constructed in place in its slab slot
  /// (SmallCallback::emplace); a SmallCallback is moved in. An argument that
  /// can be empty (SmallCallback, std::function, a function pointer, nullptr)
  /// must not be: an empty one is rejected before anything is stored. If
  /// constructing the callable throws, the queue is unchanged. When the heap
  /// root is dead (the record pop() left there, or a cancelled one), the new
  /// record overwrites it and sifts down; otherwise it is appended and sifts up.
  template <typename F>
  EventId push(double time, F&& fn);

  /// Cancels a pending event; returns false if already fired/cancelled/invalid.
  bool cancel(EventId id) noexcept;

  /// True when no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Heap records including dead ones — cancelled records, and the fired
  /// record pop() leaves at the root until the next push() or pop() — for
  /// compaction diagnostics.
  [[nodiscard]] std::size_t heap_records() const noexcept { return heap_.size(); }

  /// Lifetime counters (see Stats); survive clear().
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Time of the earliest live event; queue must not be empty.
  [[nodiscard]] double next_time() {
    LBSIM_REQUIRE(!empty(), "next_time on empty queue");
    drop_dead_top();
    return heap_.front().time;
  }

  /// Removes and returns the earliest live event; queue must not be empty.
  /// The callback is moved out of its slot, and the slot released, before the
  /// caller runs it, which is what makes clear() safe from inside a callback.
  /// The fired record stays at the heap root as a corpse: the callback's first
  /// push() overwrites it, and the next pop() drops it if none comes.
  Entry pop() {
    LBSIM_REQUIRE(!empty(), "pop on empty queue");
    drop_dead_top();
    const HeapItem item = heap_.front();
    Entry out{item.time, item.serial, std::move(slots_[item.slot].callback)};
    release_slot(item.slot);
    --live_;
    ++stats_.popped;
    return out;
  }

  /// Drops everything (live and cancelled). Slab and heap capacity are kept,
  /// and serial numbers keep counting up, so stale EventIds can never alias a
  /// later event. Safe to call from inside a running callback.
  void clear() noexcept;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Compaction threshold: rebuild once the heap is mostly corpses.
  static constexpr std::size_t kCompactMin = 64;

  struct HeapItem {
    double time;
    std::uint64_t serial;
    std::uint32_t slot;
  };

  /// The heap order, as a function object so that the std heap algorithms
  /// inline it (a function pointer stays an indirect call).
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
      return a.time > b.time || (a.time == b.time && a.serial > b.serial);
    }
  };

  struct Slot {
    Callback callback;
    std::uint64_t serial = 0;  ///< 0 = free; else the serial occupying this slot
    std::uint32_t next_free = kNilSlot;
  };

  [[nodiscard]] bool is_dead(const HeapItem& item) const noexcept {
    return slots_[item.slot].serial != item.serial;
  }

  /// The head of the free list, growing the slab by one free slot when the
  /// list is empty. The slot stays on the list until push() claims it.
  std::uint32_t free_slot() {
    if (free_head_ == kNilSlot) grow_slab();
    return free_head_;
  }
  void grow_slab();

  void release_slot(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.callback.reset();
    s.serial = 0;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Pops dead records (cancelled ones, and the fired one pop() left) off the
  /// heap top.
  void drop_dead_top() noexcept {
    while (!heap_.empty() && is_dead(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  /// Writes `item` over the dead root and sifts it down, top-down, until
  /// neither child is earlier. A successor that lands above the far-future
  /// records stops early, where a bottom-up sift (Floyd's, as in
  /// std::pop_heap) always walks to a leaf and climbs back. Which child is the
  /// earlier one is a coin flip, so it is picked without a branch.
  void sift_down_from_root(const HeapItem& item) noexcept {
    HeapItem* const heap = heap_.data();
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    std::size_t child = 1;
    for (; child + 1 < n; child = 2 * hole + 1) {
      const HeapItem& left = heap[child];
      const HeapItem& right = heap[child + 1];
      const bool right_first =
          (left.time > right.time) | ((left.time == right.time) & (left.serial > right.serial));
      child += static_cast<std::size_t>(right_first);
      if (!Later{}(item, heap[child])) {
        heap[hole] = item;
        return;
      }
      heap[hole] = heap[child];
      hole = child;
    }
    if (child < n && Later{}(item, heap[child])) {  // a last child without a sibling
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = item;
  }

  /// Removes every dead record and re-heapifies (called when dead dominates).
  void compact() noexcept;

  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::uint64_t next_serial_ = 1;
  Stats stats_;
};

template <typename F>
EventId EventQueue::push(double time, F&& fn) {
  LBSIM_REQUIRE(std::isfinite(time) && time >= 0.0, "event time " << time);
  if constexpr (kNullable<std::remove_cvref_t<F>>) {
    LBSIM_REQUIRE(static_cast<bool>(fn), "null event callback");
  }
  const std::uint32_t slot = free_slot();
  // A dead root (the record pop() left there, or a cancelled one) is
  // overwritten in place. Otherwise the record is appended first, unordered:
  // if the callable's construction throws, dropping it again leaves the queue
  // as it was (the slot is still on the free list, the root untouched).
  const bool replace_root = !heap_.empty() && is_dead(heap_.front());
  if (!replace_root) heap_.push_back(HeapItem{time, next_serial_, slot});
  Slot& s = slots_[slot];
  try {
    s.callback.emplace(std::forward<F>(fn));
  } catch (...) {
    if (!replace_root) heap_.pop_back();
    throw;
  }
  free_head_ = s.next_free;
  s.serial = next_serial_++;
  if (replace_root) {
    sift_down_from_root(HeapItem{time, s.serial, slot});
  } else {
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_;
  ++stats_.scheduled;
  if (live_ > stats_.max_depth) stats_.max_depth = live_;
  return EventId{s.serial, slot};
}

}  // namespace lbsim::des
