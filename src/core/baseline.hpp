#pragma once
/// \file
/// Baseline policies the paper's proposals are compared against (and two
/// generic baselines every LB study wants): do nothing, and a speed-
/// proportional one-shot balance that ignores both delays and failures
/// (i.e. the excess-load split with K = 1, the "conventional" policy the
/// authors' earlier work shows is delay-fragile).

#include "core/excess.hpp"
#include "core/policy.hpp"

namespace lbsim::core {

/// Never moves a task.
class NoBalancingPolicy final : public LoadBalancingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "NoBalancing"; }
  [[nodiscard]] std::vector<TransferDirective> on_start(const SystemView& view) override;
  [[nodiscard]] bool start_only() const noexcept override { return true; }
  [[nodiscard]] PolicyPtr clone() const override;
};

/// One-shot excess-load balance with fixed K = 1 and no on-failure action.
class ProportionalOncePolicy final : public LoadBalancingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "ProportionalOnce"; }
  [[nodiscard]] std::vector<TransferDirective> on_start(const SystemView& view) override;
  [[nodiscard]] bool start_only() const noexcept override { return true; }
  [[nodiscard]] PolicyPtr clone() const override;

 private:
  BalanceScratch scratch_;
};

}  // namespace lbsim::core
