#pragma once
/// \file
/// The discrete-event simulation kernel: a virtual clock plus the event loop.
/// Model components hold a Simulator& and schedule callbacks; the owner drives
/// the loop with run()/run_until()/step().

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"

namespace lbsim::des {

class Simulator {
 public:
  Simulator() = default;

  // The kernel is referenced by every component; copying would tear the world apart.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules `cb` after a nonnegative delay.
  EventId schedule_in(double delay, EventQueue::Callback cb);

  /// Schedules `cb` at an absolute time >= now().
  EventId schedule_at(double time, EventQueue::Callback cb);

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id) noexcept { return queue_.cancel(id); }

  /// Executes the next event, advancing the clock. Returns false if none remain.
  bool step();

  /// Runs until the queue drains. Returns the final clock value.
  double run();

  /// Runs events with time <= `t_end`, then sets the clock to `t_end`
  /// (if the queue drained earlier the clock still ends at `t_end`).
  double run_until(double t_end);

  /// Runs until `stop()` returns true (checked after each event) or the queue
  /// drains; returns the clock.
  double run_while_pending(const std::function<bool()>& stop);

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// The event queue's lifetime counters (cumulative across reset(): a reused
  /// worker simulator's stats cover every replication it ran).
  [[nodiscard]] const EventQueue::Stats& queue_stats() const noexcept {
    return queue_.stats();
  }

  /// Drops all pending events and rewinds the clock to zero. Statistics reset.
  void reset();

 private:
  EventQueue queue_;
  double now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace lbsim::des
