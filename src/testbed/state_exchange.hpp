#pragma once
/// \file
/// The UDP state-information plane: every node periodically broadcasts its
/// queue size and capability; every node keeps the last packet heard from each
/// peer. Policies running *at* a node observe that node's true state and the
/// possibly stale advertised state of peers — exactly the distributed-decision
/// structure of Section 3.

#include <vector>

#include "core/policy.hpp"
#include "net/network.hpp"
#include "node/compute_element.hpp"
#include "sim/simulator.hpp"

namespace lbsim::testbed {

/// Last-heard state per (observer, peer) pair.
class StateBoard {
 public:
  explicit StateBoard(std::size_t node_count);

  void store(int observer, const net::StateInfoPacket& packet);

  /// Packet last heard by `observer` from `peer` (observer != peer). Before
  /// any store this is the default-constructed packet (timestamp 0, queue 0,
  /// node up) — which is why the experiment seeds the board with the exact
  /// t = 0 state before any decision runs (see run_realization).
  [[nodiscard]] const net::StateInfoPacket& last_heard(int observer, int peer) const;

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

 private:
  std::size_t n_;
  std::vector<net::StateInfoPacket> board_;  // row-major [observer][peer]
};

/// SystemView as seen from one node: own queue read live from the CE, peers
/// read from the state board. The rate table is the realization's, shared by
/// every node's view.
class NodeLocalView final : public core::SystemView {
 public:
  NodeLocalView(int self, const markov::MultiNodeParams& params, const core::RateTable& rates,
                const std::vector<std::unique_ptr<node::ComputeElement>>& ces,
                const StateBoard& board);

  [[nodiscard]] std::size_t node_count() const override;
  [[nodiscard]] std::size_t queue_length(int node) const override;
  [[nodiscard]] bool is_up(int node) const override;
  [[nodiscard]] std::span<const markov::NodeParams> params() const override;
  [[nodiscard]] double per_task_delay_mean() const override;
  [[nodiscard]] const core::RateTable& rates() const override { return rates_; }

 private:
  int self_;
  const markov::MultiNodeParams& params_;
  const core::RateTable& rates_;
  const std::vector<std::unique_ptr<node::ComputeElement>>& ces_;
  const StateBoard& board_;
};

/// Periodically broadcasts every node's state packet over the network and
/// feeds arrivals into the board.
class StateBroadcaster {
 public:
  StateBroadcaster(des::Simulator& sim, net::Network& network, StateBoard& board,
                   const std::vector<std::unique_ptr<node::ComputeElement>>& ces,
                   const markov::MultiNodeParams& params, double period);

  /// Schedules the first broadcast round at t = now + period (t = 0 state is
  /// known exactly by assumption) and keeps going until stop().
  void start();
  void stop() noexcept { running_ = false; }

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }

 private:
  void broadcast_round();

  des::Simulator& sim_;
  net::Network& network_;
  StateBoard& board_;
  const std::vector<std::unique_ptr<node::ComputeElement>>& ces_;
  const markov::MultiNodeParams& params_;
  double period_;
  bool running_ = false;
  std::uint64_t rounds_ = 0;
};

}  // namespace lbsim::testbed
