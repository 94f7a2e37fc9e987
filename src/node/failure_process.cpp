#include "node/failure_process.hpp"

#include "node/compute_element.hpp"
#include "util/error.hpp"

namespace lbsim::node {

FailureProcess::FailureProcess(ComputeElement& ce) : ce_(ce) {}

void FailureProcess::reset(des::Simulator& sim, double lambda_f, double lambda_r,
                           stoch::RngStream& rng) {
  LBSIM_REQUIRE(
      lambda_f >= 0.0 && lambda_r >= 0.0,
      "churn rates lambda_f=" << lambda_f << ", lambda_r=" << lambda_r << " must be >= 0");
  LBSIM_REQUIRE(lambda_f == 0.0 || lambda_r > 0.0,
                "a node that can fail needs a recovery rate > 0");
  sim_ = &sim;
  lambda_f_ = lambda_f;
  lambda_r_ = lambda_r;
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
    LBSIM_REQUIRE(lambda_r_ > 0.0, "initially-down node needs a recovery rate > 0");
    ce_.fail();
    if (on_failure_) on_failure_(ce_.id());
    arm_recovery();
  } else {
    arm_failure();
  }
}

void FailureProcess::set_hazard_multiplier(double mult) {
  LBSIM_REQUIRE(mult > 0.0, "hazard multiplier " << mult << " must be > 0");
  hazard_mult_ = mult;
  if (failure_armed_) {
    // Refresh the pending draw at the new hazard: exact by memorylessness.
    sim_->cancel(pending_);
    failure_armed_ = false;
    arm_failure();
  }
}

void FailureProcess::arm_failure() {
  if (lambda_f_ == 0.0) return;  // perfectly reliable node
  pending_ = sim_->schedule_in(rng_->exponential(lambda_f_) / hazard_mult_,
                               [this] { fire_failure(); });
  failure_armed_ = true;
}

void FailureProcess::arm_recovery() {
  pending_ = sim_->schedule_in(rng_->exponential(lambda_r_), [this] { fire_recovery(); });
}

void FailureProcess::fire_failure() {
  failure_armed_ = false;
  ce_.fail();
  if (on_failure_) on_failure_(ce_.id());
  arm_recovery();
}

void FailureProcess::fire_recovery() {
  ce_.recover();
  if (on_recovery_) on_recovery_(ce_.id());
  arm_failure();
}

}  // namespace lbsim::node
