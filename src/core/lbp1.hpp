#pragma once
/// \file
/// LBP-1 (paper Section 2.1): a single preemptive, one-way transfer at t = 0 of
/// L = round(K * m_sender) tasks; no further balancing. The gain K and the
/// sender are chosen against the failure-aware analytical model (use
/// core/optimizer.hpp, or pass them explicitly to reproduce a paper row).
///
/// For n > 2 nodes the paper's single (sender, receiver, K m_i) action
/// generalises to the one-shot excess-load partition of eqs. (6)-(7) executed
/// once at t = 0; this extension is what Lbp1Policy does when node_count > 2.

#include <optional>

#include "core/excess.hpp"
#include "core/policy.hpp"

namespace lbsim::core {

class Lbp1Policy final : public LoadBalancingPolicy {
 public:
  /// Two-node form: `sender` ships round(gain * m_sender) to the other node.
  Lbp1Policy(int sender, double gain);

  /// Multi-node form: one-shot excess-load balance with gain K at t = 0.
  explicit Lbp1Policy(double gain);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<TransferDirective> on_start(const SystemView& view) override;
  [[nodiscard]] bool start_only() const noexcept override { return true; }
  [[nodiscard]] PolicyPtr clone() const override;

  [[nodiscard]] double gain() const noexcept { return gain_; }
  [[nodiscard]] std::optional<int> sender() const noexcept { return sender_; }

 private:
  std::optional<int> sender_;
  double gain_;
  BalanceScratch scratch_;  // the multi-node form's
};

}  // namespace lbsim::core
