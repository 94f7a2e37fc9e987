#include "core/lbp2.hpp"

#include <sstream>

#include "core/excess.hpp"
#include "util/error.hpp"

namespace lbsim::core {

Lbp2Policy::Lbp2Policy(double gain, bool state_aware)
    : gain_(gain), state_aware_(state_aware) {
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
}

std::string Lbp2Policy::name() const {
  std::ostringstream os;
  os << "LBP-2(K=" << gain_;
  if (state_aware_) os << ", aware";
  os << ")";
  return os.str();
}

std::vector<TransferDirective> Lbp2Policy::on_start(const SystemView& view) {
  return excess_balance(view, gain_, scratch_);
}

std::vector<TransferDirective> Lbp2Policy::on_failure(int node, const SystemView& view) {
  return failure_compensation(view, node, state_aware_);
}

PolicyPtr Lbp2Policy::clone() const { return std::make_unique<Lbp2Policy>(*this); }

}  // namespace lbsim::core
