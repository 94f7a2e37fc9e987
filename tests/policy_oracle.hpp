#pragma once
// Oracles for the policy equivalence tests: the per-pair loops the global
// policies ran before their decision-invariant sums were hoisted into
// core::excess_balance / core::failure_compensation, copied verbatim (only
// renamed, and the periodic down-sender filter made a parameter). Each pair
// re-sums all n nodes, so they cost O(n^3) at t = 0 and O(n^2) per failure;
// the production helpers must reproduce their directive lists exactly.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ostream>
#include <vector>

#include "core/excess.hpp"
#include "core/policy.hpp"
#include "markov/params.hpp"
#include "stochastic/rng.hpp"

namespace lbsim::core {

inline bool operator==(const TransferDirective& a, const TransferDirective& b) {
  return a.from == b.from && a.to == b.to && a.count == b.count;
}

/// gtest printer, so a mismatching directive list reads as from->to:count.
inline void PrintTo(const TransferDirective& d, std::ostream* os) {
  *os << d.from << "->" << d.to << ":" << d.count;
}

}  // namespace lbsim::core

namespace lbsim::core::oracle {

struct InitialTransfer {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t count = 0;
};

/// The former core::initial_balance_transfers (gain validation left to the
/// policies' constructors).
inline std::vector<InitialTransfer> initial_balance_transfers(
    const std::vector<double>& lambda_d, const std::vector<std::size_t>& workloads,
    double gain) {
  const std::size_t n = lambda_d.size();
  std::vector<InitialTransfer> out;
  for (std::size_t j = 0; j < n; ++j) {
    const double excess = excess_load(lambda_d, workloads, j);
    if (excess <= 0.0) continue;
    std::size_t remaining = workloads[j];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      const double fraction = partition_fraction(lambda_d, workloads, i, j);
      const auto count = static_cast<std::size_t>(std::llround(gain * fraction * excess));
      if (count == 0) continue;
      const std::size_t sendable = std::min(count, remaining);
      if (sendable == 0) continue;
      remaining -= sendable;
      out.push_back(InitialTransfer{j, i, sendable});
    }
  }
  return out;
}

/// The "gather rates/loads -> initial_balance_transfers -> directives" loop of
/// LBP-1 (multi-node), Lbp2Policy::on_start and ProportionalOncePolicy; with
/// `skip_down_senders` it is PeriodicRebalancePolicy::balance.
inline std::vector<TransferDirective> balance(const SystemView& view, double gain,
                                              bool skip_down_senders = false) {
  const std::size_t n = view.node_count();
  std::vector<double> rates(n);
  std::vector<std::size_t> loads(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = view.node_params(static_cast<int>(i)).lambda_d;
    loads[i] = view.queue_length(static_cast<int>(i));
  }
  std::vector<TransferDirective> directives;
  for (const InitialTransfer& t : initial_balance_transfers(rates, loads, gain)) {
    if (skip_down_senders && !view.is_up(static_cast<int>(t.from))) continue;
    directives.push_back(TransferDirective{static_cast<int>(t.from),
                                           static_cast<int>(t.to), t.count});
  }
  return directives;
}

/// The LF loop of Lbp2Policy::on_failure (`state_aware` skips peers believed
/// down); with state_aware = false it is PeriodicRebalancePolicy::on_failure.
inline std::vector<TransferDirective> failure(int node, const SystemView& view,
                                              bool state_aware = false) {
  const std::size_t n = view.node_count();
  std::vector<markov::NodeParams> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = view.node_params(static_cast<int>(i));

  std::vector<TransferDirective> directives;
  std::size_t available = view.queue_length(node);
  for (std::size_t i = 0; i < n && available > 0; ++i) {
    if (static_cast<int>(i) == node) continue;
    if (state_aware && !view.is_up(static_cast<int>(i))) continue;
    const std::size_t lf = lbp2_failure_transfer(nodes, i, static_cast<std::size_t>(node));
    if (lf == 0) continue;
    const std::size_t count = std::min(lf, available);
    available -= count;
    directives.push_back(TransferDirective{node, static_cast<int>(i), count});
  }
  return directives;
}

/// A randomised system for the equivalence tests. Rates span an order of
/// magnitude; about a quarter of the nodes never fail (availability 1); slow
/// recoveries make eq. (8) shares survive the floor even at n = 256; queues
/// include empty and tiny ones so the cap and the empty-receiver paths run.
struct RandomSystem {
  std::vector<markov::NodeParams> nodes;
  std::vector<std::size_t> queues;
  std::vector<bool> up;
};

inline RandomSystem random_system(stoch::RngStream& rng, std::size_t n) {
  RandomSystem system;
  for (std::size_t i = 0; i < n; ++i) {
    markov::NodeParams node;
    node.lambda_d = 0.2 + 2.8 * rng.uniform01();
    node.lambda_r = std::pow(10.0, -3.0 + 3.0 * rng.uniform01());  // 1e-3 .. 1
    node.lambda_f = rng.uniform01() < 0.25 ? 0.0 : 0.01 + 0.2 * rng.uniform01();
    system.nodes.push_back(node);
    const double shape = rng.uniform01();
    system.queues.push_back(shape < 0.2   ? 0
                            : shape < 0.4 ? rng.uniform_index(5)
                                          : rng.uniform_index(400));
    system.up.push_back(rng.uniform01() >= 0.3);
  }
  return system;
}

/// `system` as a test's FakeView: its parameters, queues and down nodes.
template <class View>
View make_view(const RandomSystem& system) {
  View view(system.nodes, system.queues);
  for (std::size_t i = 0; i < system.up.size(); ++i) {
    if (!system.up[i]) view.set_down(static_cast<int>(i));
  }
  return view;
}

// Random inputs almost never put a per-pair product within a few ULPs of its
// rounding boundary, so on their own they cannot tell a bit-identical hoist
// from one that drifts by an ULP (a sum formed as total - x_j, a reassociated
// product). The two helpers below tune one free input so that pair (i, j)
// sits exactly on its boundary, where any such drift flips a count.

/// The smallest gain at which round(K * p_ij * excess_j), evaluated as the
/// per-pair loop does, reaches its next task; 0 when no gain in (0, 1] has a
/// boundary for this pair.
inline double boundary_gain(const std::vector<double>& rates,
                            const std::vector<std::size_t>& loads, std::size_t i,
                            std::size_t j) {
  const double fraction = partition_fraction(rates, loads, i, j);
  const double excess = excess_load(rates, loads, j);
  const double full = fraction * excess;
  if (full < 0.5) return 0.0;
  const auto count = [&](double gain) { return std::llround(gain * fraction * excess); };
  const double k = std::floor(full - 0.5);  // the boundary k + 0.5 <= full
  double gain = (k + 0.5) / full;
  while (count(gain) <= k) gain = std::nextafter(gain, 2.0);
  while (count(std::nextafter(gain, 0.0)) > k) gain = std::nextafter(gain, 0.0);
  return gain;
}

/// The largest recovery rate of failing node j at which LF_ij, evaluated as
/// lbp2_failure_transfer does, still reaches `tasks` (LF falls as lambda_rj
/// grows); one ULP faster and it drops to tasks - 1.
inline double boundary_recovery_rate(std::vector<markov::NodeParams> nodes, std::size_t i,
                                     std::size_t j, std::size_t tasks) {
  const auto lf = [&](double rate) {
    nodes[j].lambda_r = rate;
    return lbp2_failure_transfer(nodes, i, j);
  };
  double rate_sum = 0.0;
  for (const markov::NodeParams& node : nodes) rate_sum += node.lambda_d;
  double rate = markov::availability(nodes[i]) * (nodes[i].lambda_d / rate_sum) *
                nodes[j].lambda_d / static_cast<double>(tasks);
  while (lf(rate) < tasks) rate = std::nextafter(rate, 0.0);
  while (lf(std::nextafter(rate, 1e300)) >= tasks) rate = std::nextafter(rate, 1e300);
  return rate;
}

}  // namespace lbsim::core::oracle
