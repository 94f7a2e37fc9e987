#include "core/periodic.hpp"

#include <sstream>

#include "core/excess.hpp"
#include "util/error.hpp"

namespace lbsim::core {

PeriodicRebalancePolicy::PeriodicRebalancePolicy(double period, double gain,
                                                 bool compensate_failures)
    : period_(period), gain_(gain), compensate_failures_(compensate_failures) {
  LBSIM_REQUIRE(period > 0.0, "period=" << period);
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
}

std::string PeriodicRebalancePolicy::name() const {
  std::ostringstream os;
  os << "PeriodicRebalance(T=" << period_ << ", K=" << gain_
     << (compensate_failures_ ? ", +LF" : "") << ")";
  return os.str();
}

// Down senders are skipped: do not strip a down node of its queue mid-outage;
// its backup acts only at failure instants (LBP-2 semantics), not on a tick.
std::vector<TransferDirective> PeriodicRebalancePolicy::on_start(const SystemView& view) {
  return excess_balance(view, gain_, scratch_, /*up_senders_only=*/true);
}

std::vector<TransferDirective> PeriodicRebalancePolicy::on_periodic(const SystemView& view) {
  return excess_balance(view, gain_, scratch_, /*up_senders_only=*/true);
}

std::vector<TransferDirective> PeriodicRebalancePolicy::on_failure(int node,
                                                                   const SystemView& view) {
  if (!compensate_failures_) return {};
  return failure_compensation(view, node);
}

PolicyPtr PeriodicRebalancePolicy::clone() const {
  return std::make_unique<PeriodicRebalancePolicy>(*this);
}

}  // namespace lbsim::core
