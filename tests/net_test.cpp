// Unit tests for the network substrate: delay models, bundle delays, state plane.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "net/channel.hpp"
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
}

TEST(NetworkTest, EachCopyCarriesThePacketAsSent) {
  des::Simulator sim;
  stoch::RngStream rng(17);
  stoch::RngStream state_rng(117);
  Network network(sim, 3, deterministic_config(), rng, state_rng);
  auto packet = std::make_unique<StateInfoPacket>();
  packet->sender = 2;
  packet->timestamp = 0.25;
  packet->queue_size = 7;
  packet->processing_rate = 3.5;
  packet->node_up = false;
  std::vector<StateInfoPacket> received;
  EXPECT_EQ(network.broadcast_state(
                *packet, [&received](int, const StateInfoPacket& p) { received.push_back(p); }),
            2u);
  // The caller changes its packet and then destroys it before any delivery.
  packet->queue_size = 99;
  packet->node_up = true;
  packet->processing_rate = 4.0;
  packet.reset();
  sim.run();
  ASSERT_EQ(received.size(), 2u);
  for (const StateInfoPacket& p : received) {
    EXPECT_EQ(p.sender, 2);
    EXPECT_EQ(p.timestamp, 0.25);
    EXPECT_EQ(p.queue_size, 7u);
    EXPECT_EQ(p.processing_rate, 3.5);
    EXPECT_FALSE(p.node_up);
  }
}

TEST(NetworkTest, EachCopyArrivesAfterItsHopsScaledLatency) {
  // A 2-state channel whose bad state is lossy and five times slower. A twin
  // channel stepped on a second stream with the state stream's seed predicts
  // every copy's hop, so each arrival time is known exactly.
  ChannelSpec spec;
  spec.states = 2;
  spec.loss = {0.0, 0.3};
  spec.mean_burst = {3.0, 2.0};
  spec.latency_mult = {1.0, 5.0};
  des::Simulator sim;
  stoch::RngStream rng(18);
  stoch::RngStream state_rng(118);
  auto config = deterministic_config();
  config.state_latency = 0.01;
  config.channel = spec;
  Network network(sim, 4, std::move(config), rng, state_rng);

  struct Copy {
    int receiver;
    double sent;
    double arrival;
    bool operator==(const Copy&) const = default;
  };
  std::vector<Copy> arrived;
  const auto on_state = [&](int receiver, const StateInfoPacket& p) {
    arrived.push_back({receiver, p.timestamp, sim.now()});
  };
  // Twelve broadcasts, 0.5 s apart, so no round's copies overlap the next's.
  for (int k = 0; k < 12; ++k) {
    sim.schedule_at(0.5 * k, [&network, &sim, &on_state, k] {
      StateInfoPacket packet;
      packet.sender = k % 4;
      packet.timestamp = sim.now();
      (void)network.broadcast_state(packet, on_state);
    });
  }
  sim.run();

  ChannelModel twin(spec, 0.0);
  stoch::RngStream twin_rng(118);
  std::vector<Copy> expected;
  bool saw_slow = false;
  for (int k = 0; k < 12; ++k) {
    const double sent = 0.5 * k;
    std::vector<Copy> round;
    for (int to = 0; to < 4; ++to) {
      if (to == k % 4) continue;
      const ChannelHop hop = twin.step(twin_rng);
      saw_slow = saw_slow || hop.latency_mult == 5.0;
      if (!hop.lost) round.push_back({to, sent, sent + 0.01 * hop.latency_mult});
    }
    // Within a round the earlier arrival comes first; equal times keep the
    // receiver order.
    std::stable_sort(round.begin(), round.end(),
                     [](const Copy& a, const Copy& b) { return a.arrival < b.arrival; });
    expected.insert(expected.end(), round.begin(), round.end());
  }
  EXPECT_TRUE(saw_slow);
  EXPECT_EQ(arrived, expected);
  EXPECT_EQ(network.state_packets_lost(), 12u * 3u - expected.size());
}

TEST(NetworkTest, EqualLatencyCopiesArriveInReceiverOrder) {
  des::Simulator sim;
  stoch::RngStream rng(19);
  stoch::RngStream state_rng(119);
  auto config = deterministic_config();
  config.state_latency = 0.002;
  Network network(sim, 6, std::move(config), rng, state_rng);
  StateInfoPacket packet;
  packet.sender = 3;
  std::vector<int> receivers;
  std::vector<double> times;
  (void)network.broadcast_state(packet, [&](int to, const StateInfoPacket&) {
    receivers.push_back(to);
    times.push_back(sim.now());
  });
  sim.run();
  EXPECT_EQ(receivers, (std::vector<int>{0, 1, 2, 4, 5}));
  EXPECT_EQ(times, std::vector<double>(5, 0.002));
}

TEST(NetworkTest, RefusesAnEmptyHandler) {
  des::Simulator sim;
  stoch::RngStream rng(20);
  stoch::RngStream state_rng(120);
  Network network(sim, 3, deterministic_config(), rng, state_rng);
  StateInfoPacket packet;
  const std::function<void(int, const StateInfoPacket&)> empty;
  EXPECT_THROW((void)network.broadcast_state(packet, empty), std::invalid_argument);
  void (*none)(int, const StateInfoPacket&) = nullptr;
  EXPECT_THROW((void)network.broadcast_state(packet, none), std::invalid_argument);
  // Refused before any copy is sent: no channel step (the state stream drew
  // nothing, so its next draw is a twin stream's first) and no event.
  stoch::RngStream twin(120);
  EXPECT_EQ(state_rng.next_u64(), twin.next_u64());
  EXPECT_FALSE(sim.step());
  // A non-empty std::function is a valid handler.
  int calls = 0;
  const std::function<void(int, const StateInfoPacket&)> counting =
      [&calls](int, const StateInfoPacket&) { ++calls; };
  EXPECT_EQ(network.broadcast_state(packet, counting), 2u);
  sim.run();
  EXPECT_EQ(calls, 2);
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
