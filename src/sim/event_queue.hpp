#pragma once
/// \file
/// Cancellable priority queue of timestamped events with deterministic FIFO
/// tie-breaking: events at equal times fire in scheduling order, so simulations
/// are bit-reproducible given the same RNG streams.
///
/// Storage is pooled: callbacks live in a slot slab recycled across pushes
/// (and, via clear(), across Monte-Carlo replications), and one binary heap
/// holds plain (time, serial, slot) records. See docs/ARCHITECTURE.md,
/// "Event memory model".

#include <cstdint>
#include <vector>

#include "sim/small_callback.hpp"

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

  /// Schedules `cb` at absolute time `time` (finite, >= 0).
  EventId push(double time, Callback cb);

  /// Cancels a pending event; returns false if already fired/cancelled/invalid.
  bool cancel(EventId id) noexcept;

  /// True when no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Heap records including dead (cancelled) ones — compaction diagnostics.
  [[nodiscard]] std::size_t heap_records() const noexcept { return heap_.size(); }

  /// Lifetime counters (see Stats); survive clear().
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Time of the earliest live event; queue must not be empty.
  [[nodiscard]] double next_time();

  /// Removes and returns the earliest live event; queue must not be empty.
  Entry pop();

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

  struct Slot {
    Callback callback;
    std::uint64_t serial = 0;  ///< 0 = free; else the serial occupying this slot
    std::uint32_t next_free = kNilSlot;
  };

  static bool later(const HeapItem& a, const HeapItem& b) noexcept {
    return a.time > b.time || (a.time == b.time && a.serial > b.serial);
  }

  [[nodiscard]] bool is_dead(const HeapItem& item) const noexcept {
    return slots_[item.slot].serial != item.serial;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  /// Pops cancelled records off the heap top.
  void drop_dead_top();

  /// Removes every dead record and re-heapifies (called when dead dominates).
  void compact() noexcept;

  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::uint64_t next_serial_ = 1;
  Stats stats_;
};

}  // namespace lbsim::des
