#include "core/policy.hpp"

#include <algorithm>

namespace lbsim::core {

void RateTable::assign(std::span<const markov::NodeParams> nodes) {
  rate_sum = 0.0;
  for (const markov::NodeParams& node : nodes) rate_sum += node.lambda_d;
  weight.resize(nodes.size());
  max_weight = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    weight[i] = markov::availability(nodes[i]) * (nodes[i].lambda_d / rate_sum);
    max_weight = std::max(max_weight, weight[i]);
  }
}

std::vector<TransferDirective> LoadBalancingPolicy::on_failure(int /*node*/,
                                                               const SystemView& /*view*/) {
  return {};
}

std::vector<TransferDirective> LoadBalancingPolicy::on_recovery(int /*node*/,
                                                                const SystemView& /*view*/) {
  return {};
}

std::vector<TransferDirective> LoadBalancingPolicy::on_periodic(const SystemView& /*view*/) {
  return {};
}

}  // namespace lbsim::core
