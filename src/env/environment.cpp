#include "env/environment.hpp"

#include "util/error.hpp"

namespace lbsim::env {

double EnvironmentSpec::exit_rate(std::size_t state) const {
  double total = 0.0;
  for (std::size_t j = 0; j < states; ++j) {
    if (j != state) total += rate(state, j);
  }
  return total;
}

void validate(const EnvironmentSpec& spec) {
  if (!spec.enabled()) return;
  LBSIM_REQUIRE(spec.failure_mult.size() == spec.states,
                "environment has " << spec.failure_mult.size() << " multipliers for "
                                   << spec.states << " states");
  LBSIM_REQUIRE(spec.generator.size() == spec.states * spec.states,
                "environment generator has " << spec.generator.size() << " entries, expected "
                                             << spec.states << "x" << spec.states);
  LBSIM_REQUIRE(spec.initial_state < spec.states,
                "environment initial state " << spec.initial_state << " out of range");
  for (const double mult : spec.failure_mult) {
    LBSIM_REQUIRE(mult > 0.0, "failure multiplier " << mult << " must be > 0");
  }
  for (std::size_t i = 0; i < spec.states; ++i) {
    for (std::size_t j = 0; j < spec.states; ++j) {
      if (i == j) continue;
      LBSIM_REQUIRE(spec.rate(i, j) >= 0.0,
                    "environment rate " << i << "->" << j << " is negative");
    }
  }
}

EnvironmentSpec make_calm_storm(double storm_mult, double storm_on, double storm_off) {
  EnvironmentSpec spec;
  spec.states = 2;
  spec.failure_mult = {1.0, storm_mult};
  spec.generator = {0.0, storm_on, storm_off, 0.0};
  validate(spec);
  return spec;
}

Environment::Environment(des::Simulator& sim, EnvironmentSpec spec, stoch::RngStream& rng)
    : sim_(sim), spec_(std::move(spec)), rng_(rng), state_(spec_.initial_state) {
  validate(spec_);
  LBSIM_REQUIRE(spec_.enabled(), "Environment needs a spec with states > 0");
}

void Environment::start() {
  LBSIM_REQUIRE(!running_, "environment already started");
  running_ = true;
  arm();
}

void Environment::arm() {
  const double exit = spec_.exit_rate(state_);
  if (exit <= 0.0) return;  // absorbing state
  sim_.schedule_in(rng_.exponential(exit), [this] { fire(); });
}

void Environment::fire() {
  const std::size_t from = state_;
  // Jump-chain draw: target j != from with probability rate(from, j) / exit.
  const double exit = spec_.exit_rate(from);
  double u = rng_.uniform01() * exit;
  std::size_t to = from;
  for (std::size_t j = 0; j < spec_.states; ++j) {
    if (j == from) continue;
    u -= spec_.rate(from, j);
    if (u <= 0.0) {
      to = j;
      break;
    }
  }
  if (to == from) {
    // Floating-point underflow of the final subtraction: pick the last state
    // with positive rate (probability ~0 event, but must not self-loop).
    for (std::size_t j = spec_.states; j-- > 0;) {
      if (j != from && spec_.rate(from, j) > 0.0) {
        to = j;
        break;
      }
    }
  }
  state_ = to;
  ++transitions_;
  if (event_trace_ != nullptr) {
    event_trace_->emit(sim_.now(), obs::Kind::kEnvTransition, static_cast<std::int32_t>(from),
                       static_cast<std::int32_t>(to));
  }
  if (listener_) listener_(from, to);
  arm();
}

}  // namespace lbsim::env
