#pragma once
/// \file
/// System-wide stochastic environment: a K-state continuous-time Markov chain
/// whose current state modulates the rest of the model (every node's failure
/// hazard, MMPP arrival rates). This is the common-shock extension of the
/// paper's independence assumption: failures stay conditionally independent
/// given the environment path, but the shared storm state correlates them.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "stochastic/rng.hpp"

namespace lbsim::env {

/// Declarative description of the environment CTMC. `states == 0` means "no
/// environment configured" (the paper's independent-churn model); specs are
/// plain values so ScenarioConfig stays copy-cloneable.
struct EnvironmentSpec {
  /// Number of CTMC states K; 0 disables the environment entirely.
  std::size_t states = 0;
  /// Per-state multiplier applied to every node's failure hazard (size K).
  /// 1.0 everywhere reproduces independent churn exactly in distribution.
  std::vector<double> failure_mult;
  /// Row-major K x K generator: entry [i*K + j] (i != j) is the transition
  /// rate i -> j. Diagonal entries are ignored (recomputed as the negative
  /// row sum); a row of zeros makes the state absorbing.
  std::vector<double> generator;
  /// State occupied at t = 0.
  std::size_t initial_state = 0;

  [[nodiscard]] bool enabled() const noexcept { return states > 0; }
  /// Transition rate `from -> to` (off-diagonal generator entry).
  [[nodiscard]] double rate(std::size_t from, std::size_t to) const {
    return generator[from * states + to];
  }
  /// Total exit rate of `state` (negative diagonal of the generator).
  [[nodiscard]] double exit_rate(std::size_t state) const;
};

/// Checks internal consistency (sizes, nonnegative rates, positive
/// multipliers, initial state in range). Throws via LBSIM_REQUIRE.
void validate(const EnvironmentSpec& spec);

/// The canonical two-state calm/storm spec: state 0 (calm) has multiplier 1,
/// state 1 (storm) multiplies every failure hazard by `storm_mult`; the chain
/// enters the storm at rate `storm_on` and leaves it at rate `storm_off`.
[[nodiscard]] EnvironmentSpec make_calm_storm(double storm_mult, double storm_on,
                                              double storm_off);

/// Runtime driver: holds the current state, samples exponential holding times
/// and jump targets from its private RNG stream, and notifies one listener on
/// every transition (the scenario re-arms failure processes and MMPP arrivals
/// there). Transitions are rare relative to task events, so the listener is a
/// std::function; the per-transition timer callback captures only `this` and
/// stays inside the event pool's inline buffer.
class Environment {
 public:
  /// Called after the state change has been applied (state() == to).
  using TransitionListener = std::function<void(std::size_t from, std::size_t to)>;

  /// `spec` must validate; `rng` must outlive the environment.
  Environment(des::Simulator& sim, EnvironmentSpec spec, stoch::RngStream& rng);

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  /// Arms the first transition out of the initial state (no-op if absorbing).
  void start();

  [[nodiscard]] std::size_t state() const noexcept { return state_; }
  [[nodiscard]] const EnvironmentSpec& spec() const noexcept { return spec_; }
  /// Failure-hazard multiplier of the current state.
  [[nodiscard]] double failure_multiplier() const {
    return spec_.failure_mult[state_];
  }
  [[nodiscard]] std::uint64_t transitions() const noexcept { return transitions_; }

  void set_transition_listener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

  /// Optional structured event sink: every CTMC jump is recorded as
  /// kEnvTransition (node = from state, peer = to state) before the listener
  /// runs. Consumes no RNG draws; pass nullptr to stop.
  void set_event_trace(obs::TraceBuffer* trace) noexcept { event_trace_ = trace; }

 private:
  void arm();
  void fire();

  des::Simulator& sim_;
  EnvironmentSpec spec_;
  stoch::RngStream& rng_;
  std::size_t state_;
  bool running_ = false;
  std::uint64_t transitions_ = 0;
  TransitionListener listener_;
  obs::TraceBuffer* event_trace_ = nullptr;
};

}  // namespace lbsim::env
