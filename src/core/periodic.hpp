#pragma once
/// \file
/// Periodic re-balancing: a natural extension the paper's Section 5 hints at.
/// Every `period` seconds the policy re-runs the excess-load partition
/// (eqs. (6)-(7)) against the current queues, optionally stacking LBP-2's
/// on-failure compensation on top. Engines drive the timer via on_periodic()
/// (see ScenarioConfig::rebalance_period).

#include "core/excess.hpp"
#include "core/policy.hpp"

namespace lbsim::core {

class PeriodicRebalancePolicy final : public LoadBalancingPolicy {
 public:
  /// `gain` scales every balancing episode; `compensate_failures` additionally
  /// issues LBP-2's eq. (8) transfers at failure instants.
  PeriodicRebalancePolicy(double period, double gain, bool compensate_failures = false);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<TransferDirective> on_start(const SystemView& view) override;
  [[nodiscard]] std::vector<TransferDirective> on_failure(int node,
                                                          const SystemView& view) override;
  [[nodiscard]] std::vector<TransferDirective> on_periodic(const SystemView& view) override;
  [[nodiscard]] PolicyPtr clone() const override;

  [[nodiscard]] double period() const noexcept { return period_; }

 private:
  double period_;
  double gain_;
  bool compensate_failures_;
  BalanceScratch scratch_;
};

}  // namespace lbsim::core
