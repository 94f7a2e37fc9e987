#include "core/excess.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lbsim::core {
namespace {

void validate_inputs(const std::vector<double>& lambda_d,
                     const std::vector<std::size_t>& workloads) {
  LBSIM_REQUIRE(lambda_d.size() == workloads.size(),
                "rates/workloads size mismatch: " << lambda_d.size() << " vs "
                                                  << workloads.size());
  LBSIM_REQUIRE(lambda_d.size() >= 2, "need at least two nodes");
  for (const double rate : lambda_d) LBSIM_REQUIRE(rate > 0.0, "lambda_d=" << rate);
}

}  // namespace

double excess_load(const std::vector<double>& lambda_d,
                   const std::vector<std::size_t>& workloads, std::size_t j) {
  validate_inputs(lambda_d, workloads);
  LBSIM_REQUIRE(j < workloads.size(), "node " << j);
  double rate_sum = 0.0;
  double load_sum = 0.0;
  for (std::size_t k = 0; k < lambda_d.size(); ++k) {
    rate_sum += lambda_d[k];
    load_sum += static_cast<double>(workloads[k]);
  }
  const double fair_share = (lambda_d[j] / rate_sum) * load_sum;
  const double excess = static_cast<double>(workloads[j]) - fair_share;
  return excess > 0.0 ? excess : 0.0;
}

double partition_fraction(const std::vector<double>& lambda_d,
                          const std::vector<std::size_t>& workloads, std::size_t i,
                          std::size_t j) {
  validate_inputs(lambda_d, workloads);
  const std::size_t n = lambda_d.size();
  LBSIM_REQUIRE(i < n && j < n, "nodes " << i << "," << j);
  if (i == j) return 0.0;
  if (n == 2) return 1.0;
  double normalised_sum = 0.0;  // sum over l != j of m_l / lambda_dl
  for (std::size_t l = 0; l < n; ++l) {
    if (l == j) continue;
    normalised_sum += static_cast<double>(workloads[l]) / lambda_d[l];
  }
  const double mine = static_cast<double>(workloads[i]) / lambda_d[i];
  if (normalised_sum <= 0.0) {
    // All candidate receivers are empty: split the excess evenly.
    return 1.0 / static_cast<double>(n - 1);
  }
  return (1.0 - mine / normalised_sum) / static_cast<double>(n - 2);
}

std::size_t lbp2_failure_transfer(const std::vector<markov::NodeParams>& nodes,
                                  std::size_t i, std::size_t j) {
  LBSIM_REQUIRE(nodes.size() >= 2, "need at least two nodes");
  LBSIM_REQUIRE(i < nodes.size() && j < nodes.size() && i != j, "nodes " << i << "," << j);
  const markov::NodeParams& failed = nodes[j];
  LBSIM_REQUIRE(failed.lambda_r > 0.0,
                "node " << j << " has no recovery law; LF is undefined");
  double rate_sum = 0.0;
  for (const auto& node : nodes) rate_sum += node.lambda_d;
  const double receiver_share = nodes[i].lambda_d / rate_sum;
  const double expected_backlog = failed.lambda_d / failed.lambda_r;
  const double amount =
      markov::availability(nodes[i]) * receiver_share * expected_backlog;
  return static_cast<std::size_t>(std::floor(amount));
}

std::vector<TransferDirective> excess_balance(const SystemView& view, double gain,
                                              BalanceScratch& scratch, bool up_senders_only) {
  const std::span<const markov::NodeParams> nodes = view.params();
  const RateTable& rates = view.rates();
  const std::size_t n = nodes.size();
  LBSIM_REQUIRE(n >= 2 && n == view.node_count() && rates.weight.size() == n,
                n << " parameter sets for " << view.node_count() << " nodes");
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
  // Every sum below accumulates in index order, as excess_load and
  // partition_fraction do; a sum is never derived as total - x_j.
  std::vector<std::size_t>& loads = scratch.loads;
  loads.resize(n);
  double load_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    loads[k] = view.queue_length(static_cast<int>(k));
    load_sum += static_cast<double>(loads[k]);
  }
  // The largest p_ij a receiver can get: (1 - x) / (n - 2) with x >= 0, or
  // 1 / (n - 1) when every receiver is empty, or 1 when n = 2.
  const double top_gain = gain * (n == 2 ? 1.0 : 1.0 / static_cast<double>(n - 2));
  std::vector<double>& drain = scratch.drain;  // filled by the first pricing sender
  drain.clear();
  std::vector<TransferDirective>& staged = scratch.staged;
  staged.clear();
  for (std::size_t j = 0; j < n; ++j) {
    const double excess =
        static_cast<double>(loads[j]) - (nodes[j].lambda_d / rates.rate_sum) * load_sum;
    if (excess <= 0.0) continue;
    if (top_gain * excess < 0.5) continue;  // no round(K * p_ij * excess_j) reaches 1
    if (up_senders_only && !view.is_up(static_cast<int>(j))) continue;
    if (drain.empty()) {
      drain.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        drain[k] = static_cast<double>(loads[k]) / nodes[k].lambda_d;
      }
    }
    double drain_sum = 0.0;  // sum over l != j of m_l / lambda_dl
    for (std::size_t l = 0; l < n; ++l) {
      if (l != j) drain_sum += drain[l];
    }
    std::size_t remaining = loads[j];
    for (std::size_t i = 0; i < n && remaining > 0; ++i) {
      if (i == j) continue;
      double fraction = 1.0;  // p_ij: everything to the one peer when n = 2
      if (n > 2) {
        fraction = drain_sum <= 0.0 ? 1.0 / static_cast<double>(n - 1)
                                    : (1.0 - drain[i] / drain_sum) / static_cast<double>(n - 2);
      }
      const auto count = static_cast<std::size_t>(std::llround(gain * fraction * excess));
      if (count == 0) continue;
      const std::size_t sendable = std::min(count, remaining);
      remaining -= sendable;
      staged.push_back(TransferDirective{static_cast<int>(j), static_cast<int>(i), sendable});
    }
  }
  return std::vector<TransferDirective>(staged.begin(), staged.end());
}

std::vector<TransferDirective> failure_compensation(const SystemView& view, int node,
                                                    bool up_peers_only) {
  const std::span<const markov::NodeParams> nodes = view.params();
  const RateTable& rates = view.rates();
  const std::size_t n = nodes.size();
  LBSIM_REQUIRE(n == view.node_count() && rates.weight.size() == n && node >= 0 &&
                    static_cast<std::size_t>(node) < n,
                "node " << node << " of " << n << " parameter sets for " << view.node_count()
                        << " nodes");
  const auto j = static_cast<std::size_t>(node);
  const auto receives = [&](std::size_t i) {
    return i != j && (!up_peers_only || view.is_up(static_cast<int>(i)));
  };
  std::vector<TransferDirective> directives;
  std::size_t available = view.queue_length(node);
  // lbp2_failure_transfer checks the recovery law only once it prices a
  // receiver: an empty queue, or no eligible receiver, never throws.
  if (available == 0) return directives;
  std::size_t i = 0;
  while (i < n && !receives(i)) ++i;
  if (i == n) return directives;
  const markov::NodeParams& failed = nodes[j];
  LBSIM_REQUIRE(failed.lambda_r > 0.0,
                "node " << j << " has no recovery law; LF is undefined");
  const double expected_backlog = failed.lambda_d / failed.lambda_r;
  // weight[i] <= max_weight, so no receiver's floor(weight[i] * B) reaches 1.
  if (rates.max_weight * expected_backlog < 1.0) return directives;
  for (; i < n && available > 0; ++i) {
    if (!receives(i)) continue;
    const auto lf = static_cast<std::size_t>(std::floor(rates.weight[i] * expected_backlog));
    if (lf == 0) continue;
    const std::size_t count = std::min(lf, available);
    available -= count;
    directives.push_back(TransferDirective{node, static_cast<int>(i), count});
  }
  return directives;
}

}  // namespace lbsim::core
