#include "core/lbp1.hpp"

#include <cmath>
#include <sstream>

#include "core/excess.hpp"
#include "util/error.hpp"

namespace lbsim::core {

Lbp1Policy::Lbp1Policy(int sender, double gain) : sender_(sender), gain_(gain) {
  LBSIM_REQUIRE(sender == 0 || sender == 1, "two-node LBP-1 sender=" << sender);
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
}

Lbp1Policy::Lbp1Policy(double gain) : gain_(gain) {
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
}

std::string Lbp1Policy::name() const {
  std::ostringstream os;
  os << "LBP-1(K=" << gain_;
  if (sender_) os << ", sender=" << *sender_;
  os << ")";
  return os.str();
}

std::vector<TransferDirective> Lbp1Policy::on_start(const SystemView& view) {
  const std::size_t n = view.node_count();
  if (sender_) {
    LBSIM_REQUIRE(n == 2, "explicit-sender LBP-1 is a two-node policy, got " << n);
    const int from = *sender_;
    const int to = 1 - from;
    const auto m_sender = view.queue_length(from);
    const auto count = static_cast<std::size_t>(
        std::llround(gain_ * static_cast<double>(m_sender)));
    if (count == 0) return {};
    return {TransferDirective{from, to, count}};
  }

  // Multi-node extension: one preemptive excess-load balance.
  return excess_balance(view, gain_, scratch_);
}

PolicyPtr Lbp1Policy::clone() const { return std::make_unique<Lbp1Policy>(*this); }

}  // namespace lbsim::core
