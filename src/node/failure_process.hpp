#pragma once
/// \file
/// Alternating-renewal failure/recovery driver for one CE.
///
/// While the node is up, a failure fires after a time drawn from the
/// time-to-failure law (Exp(lambda_f) in the paper); while down, a recovery
/// fires after a time-to-recovery draw (Exp(lambda_r)). Mirrors the paper's
/// failure-injection process that signals the application layer to stop and
/// later resume execution.

#include <functional>

#include "sim/simulator.hpp"
#include "stochastic/distributions.hpp"
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

  /// Seats the process, not started, on `sim` and `rng` with borrowed laws
  /// (both must outlive the run): hazard multiplier 1, no handlers. A law may
  /// be null, meaning "never": a null time-to-failure makes the node
  /// perfectly reliable (the paper's no-failure case). Anything it had
  /// scheduled must already be gone (des::Simulator::reset).
  void reset(des::Simulator& sim, const stoch::Distribution* time_to_failure,
             const stoch::Distribution* time_to_recovery, stoch::RngStream& rng);

  /// Arms the first failure timer (node assumed up) or, when `initially_down`,
  /// fails the CE immediately at the current time and arms a recovery timer.
  void start(bool initially_down = false);

  /// Stops scheduling further churn events (pending timer cancelled).
  void stop();

  /// Environment-modulation hook: scales the failure hazard by `mult` (> 0) —
  /// every time-to-failure draw is divided by `mult`, which for the
  /// exponential law is exactly Exp(mult * lambda_f). If the node is up with
  /// a failure timer armed, the timer re-arms immediately with a fresh draw
  /// at the new multiplier; by memorylessness this is exactly the
  /// Markov-modulated hazard. Recovery is never modulated (a storm makes
  /// failures more likely, not repairs faster).
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
  const stoch::Distribution* ttf_ = nullptr;
  const stoch::Distribution* ttr_ = nullptr;
  stoch::RngStream* rng_ = nullptr;
  des::EventId pending_;
  bool running_ = false;
  double hazard_mult_ = 1.0;
  /// True while `pending_` is an armed failure timer (so a multiplier change
  /// knows whether there is a draw to refresh).
  bool failure_armed_ = false;
  ChurnHandler on_failure_;
  ChurnHandler on_recovery_;
};

}  // namespace lbsim::node
