#include "env/arrivals.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lbsim::env {

void validate(const ArrivalSpec& spec, std::size_t node_count,
              const EnvironmentSpec* environment) {
  if (!spec.active()) return;
  LBSIM_REQUIRE(!(spec.unbounded && spec.count > 0),
                "arrival stream cannot be both unbounded and count-limited");
  LBSIM_REQUIRE(spec.batch >= 1, "arrival batch size must be >= 1");
  LBSIM_REQUIRE(spec.target >= -1 && spec.target < static_cast<int>(node_count),
                "arrival target " << spec.target << " out of range for " << node_count
                                  << " nodes (-1 = uniform random)");
  if (spec.process == ArrivalSpec::Process::kPoisson) {
    LBSIM_REQUIRE(spec.rate > 0.0, "Poisson arrivals need rate > 0");
  } else {
    LBSIM_REQUIRE(environment != nullptr && environment->enabled(),
                  "MMPP arrivals need an environment");
    LBSIM_REQUIRE(spec.state_rates.size() == environment->states,
                  "MMPP has " << spec.state_rates.size() << " rates for "
                              << environment->states << " environment states");
    double max_rate = 0.0;
    for (const double rate : spec.state_rates) {
      LBSIM_REQUIRE(rate >= 0.0, "MMPP state rate " << rate << " is negative");
      max_rate = std::max(max_rate, rate);
    }
    LBSIM_REQUIRE(max_rate > 0.0, "MMPP arrivals need a state with rate > 0");
  }
}

std::size_t sample_batch_size(const ArrivalSpec& spec, stoch::RngStream& rng) {
  if (spec.batch_law == ArrivalSpec::BatchLaw::kFixed || spec.batch <= 1) {
    return spec.batch;
  }
  // Geometric on {1, 2, ...} with mean b: success probability p = 1/b,
  // inverted from one uniform draw. log1p(-p) < 0 strictly since p in (0, 1).
  const double p = 1.0 / static_cast<double>(spec.batch);
  const double u = rng.uniform01();
  const double k = std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
  return static_cast<std::size_t>(std::max(1.0, k));
}

ArrivalProcess::ArrivalProcess(des::Simulator& sim, ArrivalSpec spec,
                               std::size_t node_count, const Environment* environment,
                               stoch::RngStream& rng)
    : sim_(sim),
      spec_(std::move(spec)),
      node_count_(node_count),
      environment_(environment),
      rng_(rng) {
  validate(spec_, node_count_, environment_ != nullptr ? &environment_->spec() : nullptr);
}

double ArrivalProcess::current_rate() const {
  if (spec_.process == ArrivalSpec::Process::kPoisson) return spec_.rate;
  return spec_.state_rates[environment_->state()];
}

void ArrivalProcess::start() {
  if (!spec_.active()) return;
  LBSIM_REQUIRE(sink_ != nullptr, "arrival process needs a sink before start()");
  arm();
}

void ArrivalProcess::on_environment_transition() {
  if (!spec_.active() || finished()) return;
  // Memorylessness: cancelling the pending exponential gap and resampling at
  // the new rate is exactly the modulated process.
  if (armed_) {
    sim_.cancel(pending_);
    armed_ = false;
  }
  arm();
}

void ArrivalProcess::arm() {
  const double rate = current_rate();
  if (rate <= 0.0) return;  // no arrivals in this state; re-armed on transition
  pending_ = sim_.schedule_in(rng_.exponential(rate), [this] { fire(); });
  armed_ = true;
}

void ArrivalProcess::fire() {
  armed_ = false;
  const std::size_t tasks = sample_batch_size(spec_, rng_);
  const std::size_t node =
      spec_.target >= 0 ? static_cast<std::size_t>(spec_.target)
                        : static_cast<std::size_t>(rng_.uniform_index(node_count_));
  ++epochs_;
  const bool last = !spec_.unbounded && epochs_ >= spec_.count;
  sink_(node, tasks, last);
  if (!last) arm();
}

}  // namespace lbsim::env
