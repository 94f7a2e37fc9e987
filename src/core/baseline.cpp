#include "core/baseline.hpp"

#include "core/excess.hpp"

namespace lbsim::core {

std::vector<TransferDirective> NoBalancingPolicy::on_start(const SystemView& /*view*/) {
  return {};
}

PolicyPtr NoBalancingPolicy::clone() const {
  return std::make_unique<NoBalancingPolicy>(*this);
}

std::vector<TransferDirective> ProportionalOncePolicy::on_start(const SystemView& view) {
  return excess_balance(view, 1.0, scratch_);
}

PolicyPtr ProportionalOncePolicy::clone() const {
  return std::make_unique<ProportionalOncePolicy>(*this);
}

}  // namespace lbsim::core
