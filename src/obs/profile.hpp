#pragma once
/// \file
/// Engine self-profiling: per-phase wall-time breakdown of a replication
/// (setup, and the RNG-stream part of it / event loop / stats fold, and the
/// policy-hook part of setup and loop). Engines
/// accumulate one of these per worker and merge — sums commute, so the
/// aggregate is thread-count-independent. Timing reads the wall clock only;
/// it never touches RNG state, so profiling preserves bit-identity of every
/// simulated quantity.

#include <cstdint>

namespace lbsim::obs {

struct PhaseProfile {
  double setup_s = 0.0;  ///< config clone, RNG stream construction, node wiring
  /// The RNG-stream-construction part of setup_s (already included in it):
  /// seeding every stream a replication draws from, including its long jumps.
  double streams_s = 0.0;
  double loop_s = 0.0;   ///< the DES event loop (sim.run_while_pending)
  double fold_s = 0.0;   ///< per-replication stats folding into the aggregate
  /// Time inside the policy's hooks (on_start, including the per-arrival
  /// rebalance, on_failure, on_recovery, on_periodic); it lies inside setup_s
  /// (the t = 0 split) and loop_s (everything later).
  double policy_s = 0.0;
  std::uint64_t reps = 0;
  /// Events fired inside loop_s (Simulator::executed_events() after the loop),
  /// so loop_s / events is the event loop's cost per event.
  std::uint64_t events = 0;

  void merge(const PhaseProfile& other) noexcept {
    setup_s += other.setup_s;
    streams_s += other.streams_s;
    loop_s += other.loop_s;
    fold_s += other.fold_s;
    policy_s += other.policy_s;
    reps += other.reps;
    events += other.events;
  }

  /// Wall time over the disjoint phases (streams_s lies inside setup_s, and
  /// policy_s inside setup_s and loop_s).
  [[nodiscard]] double total_s() const noexcept { return setup_s + loop_s + fold_s; }
};

}  // namespace lbsim::obs
