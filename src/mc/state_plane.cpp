#include "mc/state_plane.hpp"

#include "util/error.hpp"

namespace lbsim::mc {

void StateBoard::reset(std::size_t node_count) {
  LBSIM_REQUIRE(node_count >= 2, "state board needs >= 2 nodes");
  n_ = node_count;
  board_.assign(node_count * node_count, net::StateInfoPacket{});
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

std::size_t NodeLocalView::queue_length(int node) const {
  if (node == self_) return queue_len_.at(static_cast<std::size_t>(node));
  return board_.last_heard(self_, node).queue_size;
}

bool NodeLocalView::is_up(int node) const {
  if (node == self_) return up_.at(static_cast<std::size_t>(node)) != 0;
  return board_.last_heard(self_, node).node_up;
}

StateBroadcaster::StateBroadcaster(des::Simulator& sim, net::Network& network,
                                   StateBoard& board,
                                   const std::vector<std::uint32_t>& queue_len,
                                   const std::vector<std::uint8_t>& up,
                                   const markov::MultiNodeParams& params, double period)
    : sim_(sim),
      network_(network),
      board_(board),
      queue_len_(queue_len),
      up_(up),
      params_(params),
      period_(period) {
  LBSIM_REQUIRE(period > 0.0, "period=" << period);
}

void StateBroadcaster::start() {
  sim_.schedule_in(period_, [this] { broadcast_round(); });
}

void StateBroadcaster::broadcast_round() {
  for (std::size_t i = 0; i < queue_len_.size(); ++i) {
    net::StateInfoPacket packet;
    packet.sender = static_cast<int>(i);
    packet.timestamp = sim_.now();
    packet.queue_size = queue_len_[i];
    packet.processing_rate = params_.nodes[i].lambda_d;
    packet.node_up = up_[i] != 0;
    network_.broadcast_state(packet, [this](int receiver, const net::StateInfoPacket& pkt) {
      board_.store(receiver, pkt);
    });
  }
  sim_.schedule_in(period_, [this] { broadcast_round(); });
}

}  // namespace lbsim::mc
