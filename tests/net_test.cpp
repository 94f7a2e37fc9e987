// Unit tests for the network substrate: delay models, bundle delays, state plane.

#include <gtest/gtest.h>

#include <cmath>

#include "net/delay_model.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stochastic/stats.hpp"

namespace lbsim::net {
namespace {

TEST(DelayModelTest, ExponentialBundleMeanLinearInL) {
  const ExponentialBundleDelay model(0.02);
  EXPECT_DOUBLE_EQ(model.mean(1), 0.02);
  EXPECT_DOUBLE_EQ(model.mean(100), 2.0);
  EXPECT_THROW((void)model.mean(0), std::invalid_argument);
}

TEST(DelayModelTest, ExponentialBundleSampleMean) {
  const ExponentialBundleDelay model(0.02);
  stoch::RngStream rng(5);
  stoch::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(model.sample(35, rng));
  EXPECT_NEAR(stats.mean(), 0.7, 4.0 * stats.std_error());
  // Exponential bundle: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 0.7, 0.02);
}

TEST(DelayModelTest, ErlangPerTaskSameMeanLowerVariance) {
  const ErlangPerTaskDelay erlang(0.02, 0.0);
  const ExponentialBundleDelay expo(0.02, 0.0);
  EXPECT_DOUBLE_EQ(erlang.mean(50), expo.mean(50));
  stoch::RngStream rng(6);
  stoch::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(erlang.sample(50, rng));
  EXPECT_NEAR(stats.mean(), 1.0, 4.0 * stats.std_error());
  // Erlang(50) has stddev mean/sqrt(50) ~ 0.141.
  EXPECT_NEAR(stats.stddev(), 1.0 / std::sqrt(50.0), 0.02);
}

TEST(DelayModelTest, ShiftAddsToMeanAndFloorsSamples) {
  const ErlangPerTaskDelay model(0.02, 0.5);
  EXPECT_DOUBLE_EQ(model.mean(10), 0.7);
  stoch::RngStream rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(model.sample(1, rng), 0.5);
}

TEST(DelayModelTest, DeterministicExact) {
  const DeterministicLinearDelay model(0.1, 0.2);
  stoch::RngStream rng(8);
  EXPECT_DOUBLE_EQ(model.sample(3, rng), 0.5);
  EXPECT_DOUBLE_EQ(model.mean(3), 0.5);
}

TEST(DelayModelTest, CloneSamplesIdentically) {
  const ErlangPerTaskDelay model(0.02, 0.01);
  const TransferDelayModelPtr copy = model.clone();
  stoch::RngStream r1(9), r2(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(model.sample(5, r1), copy->sample(5, r2));
  }
}

TEST(DelayModelTest, RejectsBadParameters) {
  EXPECT_THROW(ExponentialBundleDelay(0.0), std::invalid_argument);
  EXPECT_THROW(ExponentialBundleDelay(0.02, -0.1), std::invalid_argument);
  EXPECT_THROW(ErlangPerTaskDelay(-1.0), std::invalid_argument);
}

// ---------- messages ----------

TEST(MessageTest, StatePacketWireSizeInPaperRange) {
  StateInfoPacket minimal;
  EXPECT_GE(minimal.wire_bytes(), 20u);
  StateInfoPacket with_payload = minimal;
  with_payload.has_policy_payload = true;
  EXPECT_LE(with_payload.wire_bytes(), 34u);
  EXPECT_GT(with_payload.wire_bytes(), minimal.wire_bytes());
}

// ---------- network ----------

net::Network::Config deterministic_config(double per_task = 0.1) {
  net::Network::Config config;
  config.data_delay = std::make_unique<DeterministicLinearDelay>(per_task);
  return config;
}

TEST(NetworkTest, DataDelayIsTheLawScaledByTheChannel) {
  des::Simulator sim;
  stoch::RngStream rng(13);
  stoch::RngStream state_rng(113);
  auto config = deterministic_config(0.1);
  config.channel.states = 2;
  config.channel.data_mult = {1.0, 3.0};
  Network network(sim, 3, std::move(config), rng, state_rng);
  EXPECT_DOUBLE_EQ(network.sample_data_delay(4), 0.4);
  network.set_channel_floor(1);  // a storm forces the bad state
  EXPECT_DOUBLE_EQ(network.sample_data_delay(4), 1.2);
  // A reset returns the channel to its good state and lifts the floor.
  network.reset(sim, rng, state_rng);
  EXPECT_EQ(network.channel().effective_state(), 0u);
  EXPECT_DOUBLE_EQ(network.sample_data_delay(4), 0.4);
}

TEST(NetworkTest, BroadcastReachesAllPeers) {
  des::Simulator sim;
  stoch::RngStream rng(14);
  stoch::RngStream state_rng(114);
  Network network(sim, 4, deterministic_config(), rng, state_rng);
  StateInfoPacket packet;
  packet.sender = 1;
  packet.queue_size = 42;
  std::vector<int> receivers;
  const std::size_t sent = network.broadcast_state(packet, [&](int to, const StateInfoPacket& p) {
    receivers.push_back(to);
    EXPECT_EQ(p.queue_size, 42u);
  });
  EXPECT_EQ(sent, 3u);
  sim.run();
  EXPECT_EQ(receivers.size(), 3u);
  EXPECT_EQ(network.state_packets_lost(), 0u);
  EXPECT_GT(network.state_bytes_sent(), 0u);
}

TEST(NetworkTest, LossyStatePlaneDropsSomePackets) {
  des::Simulator sim;
  stoch::RngStream rng(15);
  stoch::RngStream state_rng(115);
  auto config = deterministic_config();
  config.state_loss_probability = 0.5;
  Network network(sim, 2, std::move(config), rng, state_rng);
  StateInfoPacket packet;
  packet.sender = 0;
  std::size_t delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    delivered += network.broadcast_state(packet, [](int, const StateInfoPacket&) {});
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered), 1000.0, 100.0);
  EXPECT_NEAR(static_cast<double>(network.state_packets_lost()), 1000.0, 100.0);
}

TEST(NetworkTest, RejectsDegenerateConfigs) {
  des::Simulator sim;
  stoch::RngStream rng(16);
  stoch::RngStream state_rng(116);
  EXPECT_THROW(Network(sim, 1, deterministic_config(), rng, state_rng),
               std::invalid_argument);
  // loss = 1.0 is a legitimate boundary (total state-plane blackout); only
  // probabilities above 1 are malformed.
  auto blackout = deterministic_config();
  blackout.state_loss_probability = 1.0;
  EXPECT_NO_THROW(Network(sim, 2, std::move(blackout), rng, state_rng));
  auto bad = deterministic_config();
  bad.state_loss_probability = 1.0 + 1e-9;
  EXPECT_THROW(Network(sim, 2, std::move(bad), rng, state_rng), std::invalid_argument);
  net::Network::Config no_delay;
  EXPECT_THROW(Network(sim, 2, std::move(no_delay), rng, state_rng), std::invalid_argument);
}

}  // namespace
}  // namespace lbsim::net
