#pragma once
/// \file
/// LBP-2 (paper Section 2.2): a failure-agnostic initial balance at t = 0 —
/// each node sends K * p_ij * excess_j tasks (eqs. (6)-(7)), with K chosen
/// against the *no-failure* delay theory — followed by a compensating action at
/// every failure instant: the failing node's backup ships LF_ij tasks (eq. (8))
/// to each peer i.

#include "core/excess.hpp"
#include "core/policy.hpp"

namespace lbsim::core {

class Lbp2Policy final : public LoadBalancingPolicy {
 public:
  /// `gain` is the initial-balance gain K (optimised under the no-failure
  /// theory; see core/optimizer.hpp, or take the paper's Table 2 values).
  /// With `state_aware`, the failure compensation additionally consults the
  /// view's peer up/down state and withholds eq. (8) shipments to peers it
  /// believes are down. Under an exact view this only avoids dead letters; on
  /// the testbed the belief comes from the (possibly stale) state board, which
  /// is precisely how outdated information erodes the policy's gain. Default
  /// off: the historical failure response stays bit-identical.
  explicit Lbp2Policy(double gain, bool state_aware = false);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<TransferDirective> on_start(const SystemView& view) override;

  /// At every failure of node j: send LF_ij tasks to each peer i (eq. (8)).
  /// The engine caps the directives by node j's actual queue content.
  [[nodiscard]] std::vector<TransferDirective> on_failure(int node,
                                                          const SystemView& view) override;

  [[nodiscard]] PolicyPtr clone() const override;

  [[nodiscard]] double gain() const noexcept { return gain_; }
  [[nodiscard]] bool state_aware() const noexcept { return state_aware_; }

 private:
  double gain_;
  bool state_aware_;
  BalanceScratch scratch_;
};

}  // namespace lbsim::core
