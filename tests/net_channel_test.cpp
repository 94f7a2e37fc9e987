// Tests for the k-state Markov state-plane channel (Gilbert-Elliott at k=2):
// spec validation, geometric burst dwell, the 1-state == Bernoulli bit-identity
// reduction, decision staleness accounting, the cold-start bootstrap fix, and
// the headline effect — LBP gains degrade as channel bursts lengthen at a
// fixed stationary loss rate.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "core/policy.hpp"
#include "mc/engine.hpp"
#include "net/channel.hpp"
#include "stochastic/rng.hpp"
#include "testbed/experiment.hpp"

namespace lbsim::net {
namespace {

TEST(ChannelSpecTest, ValidatesInvariants) {
  ChannelSpec spec;
  EXPECT_NO_THROW(validate(spec));  // disabled is always valid

  spec.states = 2;
  spec.loss = {0.0, 1.0};  // blackout state is a legitimate boundary
  spec.mean_burst = {16.0, 4.0};
  EXPECT_NO_THROW(validate(spec));

  ChannelSpec bad_loss = spec;
  bad_loss.loss = {0.0, 1.5};
  EXPECT_THROW(validate(bad_loss), std::invalid_argument);

  ChannelSpec bad_burst = spec;
  bad_burst.mean_burst = {0.5};
  EXPECT_THROW(validate(bad_burst), std::invalid_argument);

  ChannelSpec bad_mult = spec;
  bad_mult.data_mult = {0.0};
  EXPECT_THROW(validate(bad_mult), std::invalid_argument);

  ChannelSpec coupled_without_states;
  coupled_without_states.env_coupled = true;
  EXPECT_THROW(validate(coupled_without_states), std::invalid_argument);

  ChannelSpec too_many = spec;
  too_many.states = 17;
  EXPECT_THROW(validate(too_many), std::invalid_argument);
}

TEST(ChannelModelTest, GilbertElliottBurstsAreGeometric) {
  // Bad-state dwell times are geometric in packets: with exit probability
  // 1/4 the mean bad burst must come out near 4 packets.
  ChannelSpec spec;
  spec.states = 2;
  spec.loss = {0.0, 1.0};
  spec.mean_burst = {8.0, 4.0};
  ChannelModel channel(spec, 0.0);
  stoch::RngStream rng(2006);

  std::size_t bursts = 0;
  std::size_t bad_steps = 0;
  bool in_bad = false;
  for (int i = 0; i < 400000; ++i) {
    (void)channel.step(rng);
    const bool bad = channel.effective_state() == 1;
    if (bad) {
      ++bad_steps;
      if (!in_bad) ++bursts;
    }
    in_bad = bad;
  }
  ASSERT_GT(bursts, 1000u);
  const double mean_burst = static_cast<double>(bad_steps) / static_cast<double>(bursts);
  EXPECT_NEAR(mean_burst, 4.0, 0.2);
  // Stationary bad fraction of a 2-state chain is 4 / (8 + 4) = 1/3.
  EXPECT_NEAR(static_cast<double>(bad_steps) / 400000.0, 1.0 / 3.0, 0.02);
}

TEST(ChannelModelTest, OneStateChannelIsBernoulliBitIdentical) {
  // A 1-state channel with loss p and the disabled-channel fallback at the
  // same p are the SAME code path: identical streams must give identical hop
  // sequences (the CRN invariant the validate command checks end to end).
  ChannelSpec one_state;
  one_state.states = 1;
  one_state.loss = {0.25};
  one_state.mean_burst = {7.0};  // irrelevant at k=1, must not perturb draws
  ChannelModel configured(one_state, 0.0);
  ChannelModel fallback(ChannelSpec{}, 0.25);

  stoch::RngStream r1(42), r2(42);
  for (int i = 0; i < 5000; ++i) {
    const ChannelHop a = configured.step(r1);
    const ChannelHop b = fallback.step(r2);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_DOUBLE_EQ(a.latency_mult, b.latency_mult);
  }
}

TEST(ChannelModelTest, FloorStateClampsAndReleases) {
  ChannelSpec spec;
  spec.states = 3;
  spec.loss = {0.0, 0.5, 1.0};
  spec.mean_burst = {1e6, 1.0, 1.0};  // pin the Markov state to 0
  ChannelModel channel(spec, 0.0);
  EXPECT_EQ(channel.effective_state(), 0u);
  channel.set_floor_state(2);
  EXPECT_EQ(channel.effective_state(), 2u);
  channel.set_floor_state(99);  // clipped to the last state
  EXPECT_EQ(channel.effective_state(), 2u);
  channel.set_floor_state(0);
  EXPECT_EQ(channel.effective_state(), 0u);
}

}  // namespace
}  // namespace lbsim::net

namespace lbsim::testbed {
namespace {

/// The paper's two-node testbed at workloads (m0, m1).
mc::ScenarioConfig paper_scenario(std::size_t m0, std::size_t m1, core::PolicyPtr policy) {
  return mc::make_two_node_scenario(markov::ipdps2006_params(), m0, m1, std::move(policy));
}

/// `realizations` of `config` on the testbed: mc::run_monte_carlo with
/// mc::Engine::kTestbed.
mc::McResult run_testbed(const mc::ScenarioConfig& config, std::size_t realizations,
                         std::uint64_t seed, unsigned threads) {
  mc::McConfig mc;
  mc.engine = mc::Engine::kTestbed;
  mc.replications = realizations;
  mc.seed = seed;
  mc.threads = threads;
  return mc::run_monte_carlo(config, mc);
}

TEST(ChannelStalenessTest, DecisionAgeNearHalfPeriodUnderLosslessExchange) {
  // With a lossless state plane, the peer entry consulted at a random
  // failure/recovery instant was broadcast Uniform(0, period) ago: the pooled
  // decision-age mean sits well inside (0, period) and the max just under
  // period + latency. (t = 0 decisions contribute exact age-0 samples.)
  const mc::ScenarioConfig config =
      paper_scenario(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::McResult summary = run_testbed(config, 200, 91, 2);
  ASSERT_GT(summary.state_age.count(), 400u);
  EXPECT_GT(summary.state_age.mean(), 0.15);
  EXPECT_LT(summary.state_age.mean(), 0.70);
  EXPECT_GT(summary.state_age.max(), 0.80);
  EXPECT_LE(summary.state_age.max(), config.exchange_period + 2.0 * config.state_latency);
  EXPECT_DOUBLE_EQ(summary.state_age.min(), 0.0);  // the exact t = 0 seed
}

TEST(ChannelStalenessTest, BurstyChannelRaisesDecisionAge) {
  // Same 20% stationary loss, bursts 16x longer: contiguous outages must
  // stretch the staleness tail far past one broadcast period.
  mc::ScenarioConfig light = paper_scenario(100, 60, std::make_unique<core::Lbp2Policy>(1.0));
  light.channel.states = 2;
  light.channel.loss = {0.0, 1.0};
  light.channel.mean_burst = {4.0, 1.0};
  mc::ScenarioConfig bursty = light.clone();
  bursty.channel.mean_burst = {64.0, 16.0};
  const mc::McResult a = run_testbed(light, 120, 17, 2);
  const mc::McResult b = run_testbed(bursty, 120, 17, 2);
  EXPECT_GT(b.state_age.mean(), a.state_age.mean());
  EXPECT_GT(b.state_age.max(), a.state_age.max());
}

/// Records what the t = 0 decisions observe (per acting node), to pin the
/// cold-start bootstrap: an initially-down node must be seen as DOWN by every
/// peer's very first decision, not as up-and-empty.
class BootstrapProbePolicy final : public core::LoadBalancingPolicy {
 public:
  struct Log {
    std::vector<bool> node0_seen_up;
    std::vector<std::size_t> node0_seen_queue;
  };

  explicit BootstrapProbePolicy(std::shared_ptr<Log> log) : log_(std::move(log)) {}

  [[nodiscard]] std::string name() const override { return "bootstrap-probe"; }

  [[nodiscard]] std::vector<core::TransferDirective> on_start(
      const core::SystemView& view) override {
    log_->node0_seen_up.push_back(view.is_up(0));
    log_->node0_seen_queue.push_back(view.queue_length(0));
    return {};
  }

  [[nodiscard]] std::unique_ptr<core::LoadBalancingPolicy> clone() const override {
    return std::make_unique<BootstrapProbePolicy>(log_);
  }

 private:
  std::shared_ptr<Log> log_;
};

TEST(ChannelBootstrapTest, InitiallyDownNodeVisibleToFirstDecisions) {
  const auto log = std::make_shared<BootstrapProbePolicy::Log>();
  mc::ScenarioConfig config =
      paper_scenario(50, 30, std::make_unique<BootstrapProbePolicy>(log));
  config.initially_down = 0b01;  // node 0 starts down
  const mc::RunResult run = run_realization(config, 3, 0);

  // Both t = 0 decisions (node 0's own view, node 1's board view) saw the
  // truth: node 0 down with its real backlog.
  ASSERT_EQ(log->node0_seen_up.size(), 2u);
  EXPECT_FALSE(log->node0_seen_up[0]);
  EXPECT_FALSE(log->node0_seen_up[1]);
  EXPECT_EQ(log->node0_seen_queue[0], 50u);
  EXPECT_EQ(log->node0_seen_queue[1], 50u);

  // Starting down is an initial condition, not a t = 0 failure event — but
  // the node must still recover and drain everything.
  EXPECT_EQ(run.tasks_completed, 80u);
  EXPECT_GE(run.recoveries, 1u);
}

TEST(ChannelEffectTest, LbpGainDegradesWithMeanBurstLength) {
  // The headline Section-3 effect: at a FIXED 20% stationary loss rate,
  // stretching the channel's mean burst length degrades the LBP's advantage.
  // The state-aware LBP-2 withholds failure shipments to peers it believes
  // are down; long blackouts freeze that belief, so its compensation goes
  // wrong in both directions (ships to a dead peer, or withholds from a live
  // one). Common random numbers across the two settings (same seed, and the
  // channel draws from its own dedicated stream) isolate the channel
  // trajectory as the only difference.
  mc::ScenarioConfig light =
      paper_scenario(100, 60, std::make_unique<core::Lbp2Policy>(1.0, /*state_aware=*/true));
  light.channel.states = 2;
  light.channel.loss = {0.0, 1.0};
  light.channel.mean_burst = {4.0, 1.0};
  mc::ScenarioConfig bursty = light.clone();
  bursty.channel.mean_burst = {256.0, 64.0};
  const mc::McResult a = run_testbed(light, 200, 7, 2);
  const mc::McResult b = run_testbed(bursty, 200, 7, 2);
  EXPECT_GT(b.mean(), a.mean());
}

}  // namespace
}  // namespace lbsim::testbed
