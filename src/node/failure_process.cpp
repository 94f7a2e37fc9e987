#include "node/failure_process.hpp"

#include "node/compute_element.hpp"
#include "util/error.hpp"

namespace lbsim::node {

FailureProcess::FailureProcess(ComputeElement& ce) : ce_(ce) {}

void FailureProcess::reset(des::Simulator& sim, const stoch::Distribution* time_to_failure,
                           const stoch::Distribution* time_to_recovery, stoch::RngStream& rng) {
  LBSIM_REQUIRE(time_to_failure == nullptr || time_to_recovery != nullptr,
                "a node that can fail needs a recovery law");
  sim_ = &sim;
  ttf_ = time_to_failure;
  ttr_ = time_to_recovery;
  rng_ = &rng;
  pending_ = des::EventId{};
  running_ = false;
  hazard_mult_ = 1.0;
  failure_armed_ = false;
  on_failure_ = nullptr;
  on_recovery_ = nullptr;
}

void FailureProcess::start(bool initially_down) {
  LBSIM_REQUIRE(!running_, "failure process already started");
  running_ = true;
  if (initially_down) {
    LBSIM_REQUIRE(ttr_ != nullptr, "initially-down node needs a recovery law");
    ce_.fail();
    if (on_failure_) on_failure_(ce_.id());
    arm_recovery();
  } else {
    arm_failure();
  }
}

void FailureProcess::stop() {
  if (!running_) return;
  running_ = false;
  failure_armed_ = false;
  sim_->cancel(pending_);
}

void FailureProcess::set_hazard_multiplier(double mult) {
  LBSIM_REQUIRE(mult > 0.0, "hazard multiplier " << mult << " must be > 0");
  hazard_mult_ = mult;
  if (running_ && failure_armed_) {
    // Refresh the pending draw at the new hazard. Exact for exponential TTF
    // (memorylessness); for other laws this is the standard regenerative
    // approximation of a modulated hazard.
    sim_->cancel(pending_);
    failure_armed_ = false;
    arm_failure();
  }
}

void FailureProcess::arm_failure() {
  if (ttf_ == nullptr) return;  // perfectly reliable node
  pending_ = sim_->schedule_in(ttf_->sample(*rng_) / hazard_mult_, [this] { fire_failure(); });
  failure_armed_ = true;
}

void FailureProcess::arm_recovery() {
  pending_ = sim_->schedule_in(ttr_->sample(*rng_), [this] { fire_recovery(); });
}

void FailureProcess::fire_failure() {
  if (!running_) return;
  failure_armed_ = false;
  ce_.fail();
  if (on_failure_) on_failure_(ce_.id());
  arm_recovery();
}

void FailureProcess::fire_recovery() {
  if (!running_) return;
  ce_.recover();
  if (on_recovery_) on_recovery_(ce_.id());
  arm_failure();
}

}  // namespace lbsim::node
