#include "testbed/state_exchange.hpp"

#include "util/error.hpp"

namespace lbsim::testbed {

StateBoard::StateBoard(std::size_t node_count) : n_(node_count), board_(node_count * node_count) {
  LBSIM_REQUIRE(node_count >= 2, "state board needs >= 2 nodes");
}

void StateBoard::store(int observer, const net::StateInfoPacket& packet) {
  LBSIM_REQUIRE(observer >= 0 && static_cast<std::size_t>(observer) < n_,
                "observer=" << observer);
  LBSIM_REQUIRE(packet.sender >= 0 && static_cast<std::size_t>(packet.sender) < n_,
                "sender=" << packet.sender);
  board_[static_cast<std::size_t>(observer) * n_ + static_cast<std::size_t>(packet.sender)] =
      packet;
}

const net::StateInfoPacket& StateBoard::last_heard(int observer, int peer) const {
  LBSIM_REQUIRE(observer >= 0 && static_cast<std::size_t>(observer) < n_,
                "observer=" << observer);
  LBSIM_REQUIRE(peer >= 0 && static_cast<std::size_t>(peer) < n_ && peer != observer,
                "peer=" << peer);
  return board_[static_cast<std::size_t>(observer) * n_ + static_cast<std::size_t>(peer)];
}

NodeLocalView::NodeLocalView(int self, const markov::MultiNodeParams& params,
                             const core::RateTable& rates,
                             const std::vector<std::unique_ptr<node::ComputeElement>>& ces,
                             const StateBoard& board)
    : self_(self), params_(params), rates_(rates), ces_(ces), board_(board) {}

std::size_t NodeLocalView::node_count() const { return ces_.size(); }

std::size_t NodeLocalView::queue_length(int node) const {
  if (node == self_) return ces_.at(static_cast<std::size_t>(node))->queue_length();
  return board_.last_heard(self_, node).queue_size;
}

bool NodeLocalView::is_up(int node) const {
  if (node == self_) return ces_.at(static_cast<std::size_t>(node))->is_up();
  return board_.last_heard(self_, node).node_up;
}

std::span<const markov::NodeParams> NodeLocalView::params() const { return params_.nodes; }

double NodeLocalView::per_task_delay_mean() const { return params_.per_task_delay_mean; }

StateBroadcaster::StateBroadcaster(des::Simulator& sim, net::Network& network,
                                   StateBoard& board,
                                   const std::vector<std::unique_ptr<node::ComputeElement>>& ces,
                                   const markov::MultiNodeParams& params, double period)
    : sim_(sim), network_(network), board_(board), ces_(ces), params_(params),
      period_(period) {
  LBSIM_REQUIRE(period > 0.0, "period=" << period);
}

void StateBroadcaster::start() {
  LBSIM_REQUIRE(!running_, "broadcaster already running");
  running_ = true;
  sim_.schedule_in(period_, [this] { broadcast_round(); });
}

void StateBroadcaster::broadcast_round() {
  if (!running_) return;
  ++rounds_;
  for (std::size_t i = 0; i < ces_.size(); ++i) {
    net::StateInfoPacket packet;
    packet.sender = static_cast<int>(i);
    packet.timestamp = sim_.now();
    packet.queue_size = static_cast<std::uint32_t>(ces_[i]->queue_length());
    packet.processing_rate = params_.nodes[i].lambda_d;
    packet.node_up = ces_[i]->is_up();
    network_.broadcast_state(packet, [this](int receiver, const net::StateInfoPacket& pkt) {
      board_.store(receiver, pkt);
    });
  }
  sim_.schedule_in(period_, [this] { broadcast_round(); });
}

}  // namespace lbsim::testbed
