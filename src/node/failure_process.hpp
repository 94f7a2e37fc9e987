#pragma once
/// \file
/// Alternating-renewal failure/recovery driver for one CE.
///
/// While the node is up, a failure fires after an Exp(lambda_f) draw; while
/// down, a recovery fires after an Exp(lambda_r) draw (the paper's Section 2
/// churn). Mirrors the paper's failure-injection process that signals the
/// application layer to stop and later resume execution.

#include <functional>

#include "sim/simulator.hpp"
#include "stochastic/rng.hpp"

namespace lbsim::node {

class ComputeElement;

class FailureProcess {
 public:
  /// Called at each failure/recovery instant (after the CE state change), e.g.
  /// by LBP-2 to trigger the backup transfer.
  using ChurnHandler = std::function<void(int node_id)>;

  /// A process driving `ce` (which must outlive it); unusable until reset()
  /// seats it.
  explicit FailureProcess(ComputeElement& ce);

  FailureProcess(const FailureProcess&) = delete;
  FailureProcess& operator=(const FailureProcess&) = delete;

  /// Seats the process, not started, on `sim` and `rng` (both must outlive
  /// the run) with failure rate `lambda_f` and recovery rate `lambda_r`:
  /// hazard multiplier 1, no handlers. A rate of 0 means "never": lambda_f = 0
  /// makes the node perfectly reliable (the paper's no-failure case), and a
  /// node that can fail must be able to recover. Anything it had scheduled
  /// must already be gone (des::Simulator::reset).
  void reset(des::Simulator& sim, double lambda_f, double lambda_r, stoch::RngStream& rng);

  /// Arms the first failure timer (node assumed up) or, when `initially_down`,
  /// fails the CE immediately at the current time and arms a recovery timer.
  void start(bool initially_down = false);

  /// Environment-modulation hook: scales the failure hazard by `mult` (> 0) —
  /// every time-to-failure draw is divided by `mult`, which is exactly
  /// Exp(mult * lambda_f). If the node is up with a failure timer armed, the
  /// timer re-arms immediately with a fresh draw at the new multiplier; by
  /// memorylessness this is exactly the Markov-modulated hazard. Recovery is
  /// never modulated (a storm makes failures more likely, not repairs faster).
  void set_hazard_multiplier(double mult);

  [[nodiscard]] double hazard_multiplier() const noexcept { return hazard_mult_; }

  void set_failure_handler(ChurnHandler handler) { on_failure_ = std::move(handler); }
  void set_recovery_handler(ChurnHandler handler) { on_recovery_ = std::move(handler); }

 private:
  void arm_failure();
  void arm_recovery();
  void fire_failure();
  void fire_recovery();

  des::Simulator* sim_ = nullptr;
  ComputeElement& ce_;
  double lambda_f_ = 0.0;
  double lambda_r_ = 0.0;
  stoch::RngStream* rng_ = nullptr;
  des::EventId pending_;
  bool running_ = false;  ///< started since the last reset
  double hazard_mult_ = 1.0;
  /// True while `pending_` is an armed failure timer (so a multiplier change
  /// knows whether there is a draw to refresh).
  bool failure_armed_ = false;
  ChurnHandler on_failure_;
  ChurnHandler on_recovery_;
};

}  // namespace lbsim::node
