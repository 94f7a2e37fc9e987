#pragma once
/// \file
/// The testbed's decision plane: every node periodically broadcasts its queue
/// size and capability over the UDP state plane; every node keeps the last
/// packet heard from each peer. A policy running *at* a node observes that
/// node's true state and the possibly stale advertised state of its peers —
/// exactly the distributed-decision structure of Section 3. The replication
/// core (mc::run_testbed_replication) keeps the board and the views in its
/// workspace and reads node state from the workspace's hot-state arrays.

#include <cstdint>
#include <vector>

#include "core/policy.hpp"
#include "markov/params.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace lbsim::mc {

/// Last-heard state per (observer, peer) pair.
class StateBoard {
 public:
  /// Sizes the board for `node_count` >= 2 nodes with every entry forgotten,
  /// keeping its capacity. A board is empty until reset.
  void reset(std::size_t node_count);

  void store(int observer, const net::StateInfoPacket& packet);

  /// Packet last heard by `observer` from `peer` (observer != peer). Before
  /// any store this is the default-constructed packet (timestamp 0, queue 0,
  /// node up) — which is why the core seeds the board with the exact t = 0
  /// state before any decision runs.
  [[nodiscard]] const net::StateInfoPacket& last_heard(int observer, int peer) const;

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
  std::vector<net::StateInfoPacket> board_;  // row-major [observer][peer]
};

/// SystemView as seen from one node: its own queue and up flag read live from
/// the hot-state arrays the nodes mirror, its peers' read from the state
/// board. The rate table is the replication's, shared by every node's view.
class NodeLocalView final : public core::SystemView {
 public:
  NodeLocalView(int self, const markov::MultiNodeParams& params, const core::RateTable& rates,
                const std::vector<std::uint32_t>& queue_len,
                const std::vector<std::uint8_t>& up, const StateBoard& board)
      : self_(self),
        params_(params),
        rates_(rates),
        queue_len_(queue_len),
        up_(up),
        board_(board) {}

  [[nodiscard]] std::size_t node_count() const override { return queue_len_.size(); }
  [[nodiscard]] std::size_t queue_length(int node) const override;
  [[nodiscard]] bool is_up(int node) const override;
  [[nodiscard]] std::span<const markov::NodeParams> params() const override {
    return params_.nodes;
  }
  [[nodiscard]] double per_task_delay_mean() const override {
    return params_.per_task_delay_mean;
  }
  [[nodiscard]] const core::RateTable& rates() const override { return rates_; }

 private:
  int self_;
  const markov::MultiNodeParams& params_;
  const core::RateTable& rates_;
  const std::vector<std::uint32_t>& queue_len_;
  const std::vector<std::uint8_t>& up_;
  const StateBoard& board_;
};

/// Broadcasts every node's state packet over the network every `period`
/// seconds and feeds the copies that arrive into the board. Its rounds
/// reschedule themselves for as long as the kernel runs, so the kernel must
/// not run past the broadcaster's lifetime: the next replication's
/// des::Simulator::reset drops the pending round unrun.
class StateBroadcaster {
 public:
  StateBroadcaster(des::Simulator& sim, net::Network& network, StateBoard& board,
                   const std::vector<std::uint32_t>& queue_len,
                   const std::vector<std::uint8_t>& up, const markov::MultiNodeParams& params,
                   double period);

  /// Schedules the first broadcast round at t = now + period (the t = 0 state
  /// is known exactly by assumption).
  void start();

 private:
  void broadcast_round();

  des::Simulator& sim_;
  net::Network& network_;
  StateBoard& board_;
  const std::vector<std::uint32_t>& queue_len_;
  const std::vector<std::uint8_t>& up_;
  const markov::MultiNodeParams& params_;
  double period_;
};

}  // namespace lbsim::mc
