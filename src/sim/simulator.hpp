#pragma once
/// \file
/// The discrete-event simulation kernel: a virtual clock plus the event loop.
/// Model components hold a Simulator& and schedule callbacks; the owner drives
/// the loop with run()/run_until()/run_while_pending()/step().
///
/// Scheduling, step() and run_while_pending() are defined here so that the
/// loop inlines: a callable handed to schedule_in()/schedule_at() is built
/// directly in its event slot, and the only calls through a pointer left on
/// the per-event path are the callback's own (its move out of the slot, the
/// call, its destruction).

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/error.hpp"

namespace lbsim::des {

class Simulator {
 public:
  Simulator() = default;

  // The kernel is referenced by every component; copying would tear the world apart.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules the `void()` callable `fn` after a nonnegative delay (see
  /// EventQueue::push for what `fn` may be).
  template <typename F>
  EventId schedule_in(double delay, F&& fn) {
    LBSIM_REQUIRE(std::isfinite(delay) && delay >= 0.0, "delay " << delay);
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules the `void()` callable `fn` at an absolute time >= now().
  template <typename F>
  EventId schedule_at(double time, F&& fn) {
    LBSIM_REQUIRE(time >= now_,
                  "schedule_at(" << time << ") is in the past (now=" << now_ << ")");
    return queue_.push(time, std::forward<F>(fn));
  }

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id) noexcept { return queue_.cancel(id); }

  /// Executes the next event, advancing the clock. Returns false if none remain.
  bool step() {
    if (queue_.empty()) return false;
    EventQueue::Entry entry = queue_.pop();
    LBSIM_CHECK(entry.time >= now_, "event time went backwards");
    now_ = entry.time;
    ++executed_;
    entry.callback();
    return true;
  }

  /// Runs until the queue drains. Returns the final clock value.
  double run();

  /// Runs events with time <= `t_end`, then sets the clock to `t_end`
  /// (if the queue drained earlier the clock still ends at `t_end`).
  double run_until(double t_end);

  /// Runs until `stop()` returns true (checked before each event) or the queue
  /// drains; returns the clock. `stop` is any `bool()` callable; one that can
  /// be empty (std::function, a function pointer) must not be.
  template <typename Stop>
  double run_while_pending(Stop&& stop) {
    if constexpr (kNullable<std::remove_cvref_t<Stop>>) {
      LBSIM_REQUIRE(static_cast<bool>(stop), "null stop predicate");
    }
    while (!stop() && step()) {
    }
    return now_;
  }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// The event queue's lifetime counters (cumulative across reset(): a reused
  /// worker simulator's stats cover every replication it ran).
  [[nodiscard]] const EventQueue::Stats& queue_stats() const noexcept {
    return queue_.stats();
  }

  /// Drops all pending events and rewinds the clock to zero. executed_events()
  /// restarts at zero; queue_stats() does not reset.
  void reset();

 private:
  EventQueue queue_;
  double now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace lbsim::des
