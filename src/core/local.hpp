#pragma once
/// \file
/// Neighbourhood-local balancing policies: each node acts on its graph
/// neighbourhood only (SystemView::neighbor_count / neighbor), never on global
/// state, so they stay well-defined on the sparse graph-* topologies.
///
/// Two classics are provided:
///  * DiffusionPolicy — first-order diffusion (Cybenko; Cai & Sauerwald with
///    stochastic inputs): each round every edge (i, j) moves
///    floor(alpha * w_ij * (q_i - q_j)) tasks from the fuller endpoint, with
///    Metropolis weights w_ij = 1 / (1 + max(deg_i, deg_j)). On a static
///    connected graph the real-valued iteration contracts the imbalance by at
///    least the Laplacian spectral gap per round (pinned in
///    net_topology_test).
///  * RandomProbePolicy — random local resampling (Ganesh et al. style): each
///    round every node probes d random neighbours and steals from the fullest
///    or sheds to the emptiest probed neighbour, halving the difference.
///
/// Both act on the engine's periodic round timer (rebalance_period); diffusion
/// additionally runs one deterministic round at t = 0, mirroring the global
/// policies' initial balance.

#include <cstddef>
#include <vector>

#include "core/policy.hpp"

namespace lbsim::core {

/// Snapshot of what a round sees: queue lengths and up/down flags are read
/// once, so every directive of the round is computed against the same state
/// (the engine executes directives only after the hook returns). A policy
/// keeps one as round scratch, so its capacity carries over between rounds.
struct RoundState {
  std::vector<std::size_t> queue;
  std::vector<bool> up;

  void read(const SystemView& view);
};

/// Metropolis edge weight 1 / (1 + max(deg_i, deg_j)): symmetric, and row sums
/// stay < 1, so the diffusion matrix I - alpha * W L is doubly stochastic for
/// alpha in (0, 1]. Exposed for the spectral-gap theory tests.
[[nodiscard]] double metropolis_weight(std::size_t deg_i, std::size_t deg_j);

/// First-order diffusion with step scale alpha in (0, 1].
class DiffusionPolicy final : public LoadBalancingPolicy {
 public:
  explicit DiffusionPolicy(double alpha);

  [[nodiscard]] std::string name() const override;
  /// One diffusion round at t = 0 (the initial balance).
  [[nodiscard]] std::vector<TransferDirective> on_start(const SystemView& view) override;
  /// One diffusion round per engine round timer tick.
  [[nodiscard]] std::vector<TransferDirective> on_periodic(const SystemView& view) override;
  [[nodiscard]] PolicyPtr clone() const override;

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  [[nodiscard]] std::vector<TransferDirective> round(const SystemView& view);

  double alpha_;
  RoundState state_;  // round scratch
};

/// Random local resampling: probe `probes` random neighbours per round.
class RandomProbePolicy final : public LoadBalancingPolicy {
 public:
  explicit RandomProbePolicy(std::size_t probes);

  [[nodiscard]] std::string name() const override;
  /// No t = 0 action: probing is random and rounds begin at the first tick,
  /// so the initial condition stays exactly the configured workloads.
  [[nodiscard]] std::vector<TransferDirective> on_start(const SystemView& view) override;
  [[nodiscard]] std::vector<TransferDirective> on_periodic(const SystemView& view) override;
  [[nodiscard]] PolicyPtr clone() const override;

  [[nodiscard]] bool needs_rng() const noexcept override { return true; }
  void bind_rng(stoch::RngStream* rng) override { rng_ = rng; }

  [[nodiscard]] std::size_t probes() const noexcept { return probes_; }

 private:
  std::size_t probes_;
  stoch::RngStream* rng_ = nullptr;  // engine-owned, rebound every replication
  RoundState state_;                 // round scratch
  std::vector<std::size_t> slots_;   // probe scratch: one node's neighbour slots
};

}  // namespace lbsim::core
