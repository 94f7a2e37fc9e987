#include "net/network.hpp"

#include <utility>

#include "util/error.hpp"

namespace lbsim::net {

Network::Network(des::Simulator& sim, std::size_t node_count, Config config,
                 stoch::RngStream& rng, stoch::RngStream& state_rng)
    : Network(node_count, std::move(config)) {
  reset(sim, rng, state_rng);
}

Network::Network(std::size_t node_count, Config config)
    : node_count_(node_count),
      config_(std::move(config)),
      channel_(config_.channel, config_.state_loss_probability) {
  LBSIM_REQUIRE(node_count >= 2, "network needs >= 2 nodes");
  LBSIM_REQUIRE(config_.data_delay != nullptr, "network needs a data delay model");
  LBSIM_REQUIRE(config_.state_latency >= 0.0, "state_latency=" << config_.state_latency);
  // p == 1 is a legitimate boundary (total state-plane blackout), matching the
  // topology layer's churn.drop=1; only p > 1 is a configuration error.
  LBSIM_REQUIRE(config_.state_loss_probability >= 0.0 && config_.state_loss_probability <= 1.0,
                "state_loss_probability=" << config_.state_loss_probability);
}

void Network::reset(des::Simulator& sim, stoch::RngStream& rng, stoch::RngStream& state_rng) {
  sim_ = &sim;
  rng_ = &rng;
  state_rng_ = &state_rng;
  channel_.reset();
  state_lost_ = 0;
  event_trace_ = nullptr;
}

double Network::sample_data_delay(std::size_t tasks) {
  return config_.data_delay->sample(tasks, *rng_) * channel_.data_multiplier();
}

std::optional<double> Network::send_copy(const StateInfoPacket& packet, std::size_t to) {
  // Unconditionally-per-packet channel step: stream consumption is the same
  // whatever the loss/channel configuration, so CRN pairing survives sweeps.
  const std::size_t state_before = channel_.effective_state();
  const ChannelHop hop = channel_.step(*state_rng_);
  if (event_trace_ != nullptr && channel_.effective_state() != state_before) {
    event_trace_->emit(sim_->now(), obs::Kind::kChannelState, packet.sender,
                       static_cast<std::int32_t>(to),
                       static_cast<std::uint32_t>(channel_.effective_state()));
  }
  if (hop.lost) {
    ++state_lost_;
    if (event_trace_ != nullptr) {
      event_trace_->emit(sim_->now(), obs::Kind::kStatePacketLost, packet.sender,
                         static_cast<std::int32_t>(to));
    }
    return std::nullopt;
  }
  return config_.state_latency * hop.latency_mult;
}

}  // namespace lbsim::net
