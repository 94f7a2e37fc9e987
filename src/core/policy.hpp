#pragma once
/// \file
/// The load-balancing policy abstraction. A policy observes the system through
/// a read-only SystemView and answers three questions with transfer directives:
/// what to do at t = 0, at a node-failure instant, and at a recovery instant.
/// The simulation engines (mc/, testbed/) execute the directives — capping them
/// by what the sender actually holds — and charge the network delays.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "markov/params.hpp"
#include "util/error.hpp"

namespace lbsim::stoch {
class RngStream;
}

namespace lbsim::core {

/// "Move `count` tasks from node `from` to node `to`."
struct TransferDirective {
  int from = 0;
  int to = 0;
  std::size_t count = 0;
};

/// The constants LBP-2 prices its decisions from (eqs. (7)-(8)). They depend
/// on the node parameters alone, so a view's owner assigns the table when it
/// builds the view, and every decision reads it instead of re-deriving it.
struct RateTable {
  /// sum_k lambda_dk, summed in index order.
  double rate_sum = 0.0;
  /// Receiver i's eq. (8) weight availability_i * (lambda_di / rate_sum):
  /// LF_ij = floor(weight[i] * lambda_dj / lambda_rj).
  std::vector<double> weight;
  /// The largest weight.
  double max_weight = 0.0;

  /// Re-derives the table for `nodes` (each validated), keeping the weight
  /// vector's capacity.
  void assign(std::span<const markov::NodeParams> nodes);
};

/// Read-only system snapshot offered to policies. Implemented by the engines.
class SystemView {
 public:
  virtual ~SystemView() = default;
  [[nodiscard]] virtual std::size_t node_count() const = 0;
  [[nodiscard]] virtual std::size_t queue_length(int node) const = 0;
  [[nodiscard]] virtual bool is_up(int node) const = 0;
  /// The stochastic parameters the policy is allowed to know (the paper's
  /// policies know rates, not realisations), one entry per node. A decision
  /// takes the span once and reads every rate from it: no per-node virtual
  /// call, no copy.
  [[nodiscard]] virtual std::span<const markov::NodeParams> params() const = 0;
  /// params()[node], bounds-checked.
  [[nodiscard]] const markov::NodeParams& node_params(int node) const {
    const std::span<const markov::NodeParams> nodes = params();
    LBSIM_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < nodes.size(), "node=" << node);
    return nodes[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] virtual double per_task_delay_mean() const = 0;
  /// The RateTable of params(), assigned by whoever built the view.
  [[nodiscard]] virtual const RateTable& rates() const = 0;

  /// Neighbourhood restriction. The default is the complete exchange graph
  /// (every other node is a neighbour), which is what every pre-topology
  /// engine exposes; a topology-aware engine overrides both methods to
  /// restrict a policy's horizon — and its transfers — to the node's
  /// adjacency. Neighbour indices are stable within one policy invocation.
  [[nodiscard]] virtual std::size_t neighbor_count(int node) const {
    (void)node;
    return node_count() - 1;
  }
  /// k-th neighbour of `node`, k < neighbor_count(node) (ascending node id).
  [[nodiscard]] virtual int neighbor(int node, std::size_t k) const {
    const int peer = static_cast<int>(k);
    return peer < node ? peer : peer + 1;
  }
};

class LoadBalancingPolicy {
 public:
  virtual ~LoadBalancingPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Balancing action at t = 0 (all policies act here, possibly with nothing).
  [[nodiscard]] virtual std::vector<TransferDirective> on_start(const SystemView& view) = 0;

  /// True when the policy's entire action is its t = 0 directives (the
  /// failure/recovery/periodic hooks never move a task). Start-only policies
  /// stay inside the regeneration solvers' model, so the theory oracle can
  /// predict them exactly; event-driven ones (LBP-2, periodic) cannot be
  /// expressed there. Conservative default: false.
  [[nodiscard]] virtual bool start_only() const noexcept { return false; }

  /// Balancing action at the instant node `node` fails (default: none).
  [[nodiscard]] virtual std::vector<TransferDirective> on_failure(int node,
                                                                  const SystemView& view);

  /// Balancing action at the instant node `node` recovers (default: none).
  [[nodiscard]] virtual std::vector<TransferDirective> on_recovery(int node,
                                                                   const SystemView& view);

  /// Balancing action on a periodic timer tick (default: none). Engines fire
  /// this only when configured with a rebalance period.
  [[nodiscard]] virtual std::vector<TransferDirective> on_periodic(const SystemView& view);

  /// True when the policy draws randomness (e.g. random neighbour probes).
  /// The engine then appends a dedicated per-replication RNG stream and hands
  /// it over through bind_rng before on_start; RNG-free policies keep the
  /// historical stream layout bit-for-bit. Conservative default: false.
  [[nodiscard]] virtual bool needs_rng() const noexcept { return false; }

  /// Receives the per-replication stream (valid for the whole replication).
  /// Only called when needs_rng() is true; clones do not inherit the binding.
  virtual void bind_rng(stoch::RngStream* rng) { (void)rng; }

  /// Deep copy, so each Monte-Carlo replication can own an instance.
  [[nodiscard]] virtual std::unique_ptr<LoadBalancingPolicy> clone() const = 0;
};

using PolicyPtr = std::unique_ptr<LoadBalancingPolicy>;

}  // namespace lbsim::core
