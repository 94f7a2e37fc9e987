// Tests for the testbed emulation: the three-layer wiring, state exchange,
// distributed decisions, and consistency with the abstract model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "markov/two_node_mean.hpp"
#include "mc/engine.hpp"
#include "mc/state_plane.hpp"
#include "stochastic/stats.hpp"
#include "testbed/experiment.hpp"

namespace lbsim::testbed {
namespace {

TEST(StateBoardTest, StoreAndRecall) {
  mc::StateBoard board;
  board.reset(3);
  net::StateInfoPacket packet;
  packet.sender = 1;
  packet.queue_size = 17;
  board.store(0, packet);
  EXPECT_EQ(board.last_heard(0, 1).queue_size, 17u);
  // Unheard peers read as the default packet.
  EXPECT_EQ(board.last_heard(2, 1).queue_size, 0u);
  EXPECT_THROW((void)board.last_heard(1, 1), std::invalid_argument);
  // A reset, as every replication does, forgets what was heard.
  board.reset(3);
  EXPECT_EQ(board.last_heard(0, 1).queue_size, 0u);
}

/// The paper's two-node testbed at workloads (m0, m1).
mc::ScenarioConfig paper_scenario(std::size_t m0, std::size_t m1, core::PolicyPtr policy) {
  return mc::make_two_node_scenario(markov::ipdps2006_params(), m0, m1, std::move(policy));
}

/// `realizations` of `config` on the testbed, every completion time kept:
/// mc::run_monte_carlo with mc::Engine::kTestbed.
mc::McResult run_testbed(const mc::ScenarioConfig& config, std::size_t realizations,
                         std::uint64_t seed, unsigned threads) {
  mc::McConfig mc;
  mc.engine = mc::Engine::kTestbed;
  mc.replications = realizations;
  mc.seed = seed;
  mc.threads = threads;
  mc.collect_samples = true;
  return mc::run_monte_carlo(config, mc);
}

/// Expects both entry points, run_monte_carlo at threads 1 and 4 and
/// run_realization, to refuse `config` with std::invalid_argument.
void expect_refused(const mc::ScenarioConfig& config, const std::string& what) {
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW((void)run_testbed(config, 8, 3, threads), std::invalid_argument)
        << what << " at threads " << threads;
  }
  EXPECT_THROW((void)run_realization(config, 3, 0), std::invalid_argument) << what;
}

TEST(TestbedTest, RefusalsReachTheCallerFromBothEntryPoints) {
  // Each value is checked where it is used (the replication core, the
  // network, the Erlang delay law, the state broadcaster) or, for what the
  // testbed cannot run at all, by check_emulable; either way the caller gets
  // std::invalid_argument.
  const auto paper = [] {
    return paper_scenario(40, 20, std::make_unique<core::Lbp1Policy>(0, 0.35));
  };
  EXPECT_DOUBLE_EQ(paper().params.nodes[0].lambda_d, 1.08);
  EXPECT_DOUBLE_EQ(paper().transfer_setup_shift, 0.005);  // the Fig. 2 shift

  mc::ScenarioConfig no_policy = paper();
  no_policy.policy = nullptr;
  expect_refused(no_policy, "no policy");
  // loss = 1.0 is the blackout boundary and runs; above 1 is malformed.
  mc::ScenarioConfig blackout = paper();
  blackout.state_loss_probability = 1.0;
  EXPECT_EQ(run_realization(blackout, 3, 0).tasks_completed, 60u);
  EXPECT_EQ(run_testbed(blackout, 8, 3, 4).completion.count(), 8u);
  mc::ScenarioConfig bad_loss = paper();
  bad_loss.state_loss_probability = 1.0 + 1e-9;
  expect_refused(bad_loss, "loss 1 + 1e-9");
  mc::ScenarioConfig bad_shift = paper();
  bad_shift.transfer_setup_shift = -1e-3;
  expect_refused(bad_shift, "negative setup shift");
  mc::ScenarioConfig no_period = paper();
  no_period.exchange_period = 0.0;
  expect_refused(no_period, "exchange period 0");
  mc::ScenarioConfig coupled = paper();
  coupled.channel.states = 2;
  coupled.channel.env_coupled = true;
  expect_refused(coupled, "env-coupled channel without an environment");

  // Every key the testbed does not emulate.
  mc::ScenarioConfig periodic = paper();
  periodic.rebalance_period = 10.0;
  expect_refused(periodic, "periodic round");
  mc::ScenarioConfig delay = paper();
  delay.delay_model = std::make_unique<net::ExponentialBundleDelay>(0.02, 1.0);
  expect_refused(delay, "delay model");
  mc::ScenarioConfig arrivals = paper();
  arrivals.arrivals.process = env::ArrivalSpec::Process::kPoisson;
  arrivals.arrivals.rate = 1.0;
  arrivals.arrivals.count = 2;
  expect_refused(arrivals, "arrivals");
  mc::ScenarioConfig schedule = paper();
  schedule.schedule.per_node = {{{5.0, true}, {8.0, false}}};
  expect_refused(schedule, "schedule");
  mc::ScenarioConfig ring = paper();
  ring.topology.kind = net::TopologySpec::Kind::kRing;
  expect_refused(ring, "topology");

  // The testbed runs plain replications only; run_realization has no VR knob.
  for (const mc::VrMode vr : {mc::VrMode::kAntithetic, mc::VrMode::kControlVariate}) {
    for (const unsigned threads : {1u, 4u}) {
      mc::McConfig mc;
      mc.engine = mc::Engine::kTestbed;
      mc.replications = 8;
      mc.threads = threads;
      mc.vr = vr;
      EXPECT_THROW((void)mc::run_monte_carlo(paper(), mc), std::invalid_argument)
          << mc::vr_mode_name(vr) << " at threads " << threads;
    }
  }
}

TEST(TestbedTest, RealizationCompletesAllTasks) {
  const mc::ScenarioConfig config =
      paper_scenario(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::RunResult run = run_realization(config, 1, 0);
  EXPECT_EQ(run.tasks_completed, 160u);
  EXPECT_GT(run.completion_time, 0.0);
  EXPECT_EQ(run.tasks_moved, 35u);
}

TEST(TestbedTest, DeterministicPerReplication) {
  const mc::ScenarioConfig config =
      paper_scenario(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::RunResult a = run_realization(config, 9, 4);
  const mc::RunResult b = run_realization(config, 9, 4);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(TestbedTest, TraceShowsFlatSegmentsDuringDownTime) {
  // A down node serves nothing, so Fig. 4's queue curve of a node is flat
  // from its fail to its next recover but for transfers: no task_complete
  // record falls there.
  const mc::ScenarioConfig config =
      paper_scenario(100, 60, std::make_unique<core::Lbp2Policy>(1.0));
  mc::RunTrace trace;
  const mc::RunResult run = run_realization(config, 4, 1, &trace);
  ASSERT_GT(run.failures, 0u);
  EXPECT_EQ(trace.events.count(obs::Kind::kFail), run.failures);
  bool down[2] = {false, false};
  std::uint64_t completions = 0;
  trace.events.for_each([&](const obs::Record& r) {
    switch (r.kind_enum()) {
      case obs::Kind::kFail:
        down[r.node] = true;
        break;
      case obs::Kind::kRecover:
        down[r.node] = false;
        break;
      case obs::Kind::kTaskComplete:
        EXPECT_FALSE(down[r.node])
            << "node " << r.node << " completed a task at t=" << r.time << " while down";
        ++completions;
        break;
      default:
        break;
    }
  });
  EXPECT_EQ(completions, run.tasks_completed);
}

TEST(TestbedTest, NoChurnMatchesNoFailureTheory) {
  // With churn off and the Erlang delay's mean equal to the analytic model's,
  // the emulated mean must sit near the no-failure theory (the delay-law shape
  // difference moves the completion mean by far less than a second here).
  mc::ScenarioConfig config =
      paper_scenario(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.45));
  config.churn_enabled = false;
  config.transfer_setup_shift = 0.0;
  const mc::McResult summary = run_testbed(config, 400, 77, 2);
  markov::TwoNodeMeanSolver solver(markov::without_failures(markov::ipdps2006_params()));
  const double theory = solver.lbp1_mean(100, 60, 0, 0.45);
  EXPECT_NEAR(summary.mean(), theory, std::max(1.0, 4.0 * summary.ci95() / 1.96));
}

TEST(TestbedTest, ChurnyMeanNearAbstractModel) {
  // The emulation differs from the abstract model (Erlang bundle delay, setup
  // shift, size-based service) but must land in the same regime as the theory
  // for the Fig. 3 operating point (~117 s); allow 10%.
  const mc::ScenarioConfig config =
      paper_scenario(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::McResult summary = run_testbed(config, 300, 13, 2);
  EXPECT_NEAR(summary.mean(), 117.0, 0.10 * 117.0);
}

TEST(TestbedTest, SummaryAggregatesRealizations) {
  const mc::ScenarioConfig config =
      paper_scenario(50, 30, std::make_unique<core::Lbp1Policy>(0, 0.3));
  const mc::McResult summary = run_testbed(config, 20, 5, 2);
  EXPECT_EQ(summary.completion.count(), 20u);
  EXPECT_EQ(summary.samples.size(), 20u);
  EXPECT_TRUE(std::is_sorted(summary.samples.begin(), summary.samples.end()));
  EXPECT_GT(summary.mean(), 0.0);
}

TEST(TestbedTest, ThreadingInvariance) {
  const mc::ScenarioConfig config =
      paper_scenario(40, 20, std::make_unique<core::Lbp2Policy>(1.0));
  const mc::McResult a = run_testbed(config, 16, 3, 1);
  const mc::McResult b = run_testbed(config, 16, 3, 4);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

/// Bitwise equality (EXPECT_DOUBLE_EQ would allow 4 ULPs).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_stats(const stoch::RunningStats& a, const stoch::RunningStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_TRUE(same_bits(a.mean(), b.mean())) << what << " mean";
  EXPECT_TRUE(same_bits(a.variance(), b.variance())) << what << " variance";
  EXPECT_TRUE(same_bits(a.min(), b.min())) << what << " min";
  EXPECT_TRUE(same_bits(a.max(), b.max())) << what << " max";
}

TEST(TestbedTest, ThreadCountDoesNotChangeCompletionOrStateAge) {
  // The driver folds the realizations in replication order, so the
  // completion statistics and the pooled state ages keep the threads = 1
  // bits at every thread count.
  mc::ScenarioConfig config = paper_scenario(40, 20, std::make_unique<core::Lbp2Policy>(1.0));
  config.state_loss_probability = 0.3;
  const mc::McResult serial = run_testbed(config, 40, 3, 1);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    const mc::McResult other = run_testbed(config, 40, 3, threads);
    const std::string where = "threads " + std::to_string(threads);
    expect_same_stats(serial.completion, other.completion, where + " completion");
    expect_same_stats(serial.state_age, other.state_age, where + " state_age");
    EXPECT_EQ(serial.samples, other.samples) << where;
    EXPECT_TRUE(same_bits(serial.mean_failures, other.mean_failures)) << where;
    EXPECT_TRUE(same_bits(serial.mean_tasks_moved, other.mean_tasks_moved)) << where;
    EXPECT_TRUE(same_bits(serial.mean_state_lost, other.mean_state_lost)) << where;
  }
}

TEST(TestbedTest, QuantilesAndBundlesFoldLikeTheAbstractModel) {
  // The testbed folds through run_monte_carlo, so its result fills what the
  // abstract model's does: the quantiles are the type-7 values of its own
  // sorted samples, and mean_bundles is the mean of what each realization
  // shipped.
  mc::ScenarioConfig config = paper_scenario(60, 20, std::make_unique<core::Lbp2Policy>(1.0));
  config.state_loss_probability = 0.3;
  constexpr std::size_t kRealizations = 24;
  const mc::McResult result = run_testbed(config, kRealizations, 11, 3);
  ASSERT_EQ(result.samples.size(), kRealizations);
  EXPECT_TRUE(same_bits(result.p50, stoch::quantile_sorted(result.samples, 0.5)));
  EXPECT_TRUE(same_bits(result.p90, stoch::quantile_sorted(result.samples, 0.9)));
  EXPECT_TRUE(same_bits(result.p99, stoch::quantile_sorted(result.samples, 0.99)));
  double bundles = 0.0;
  for (std::uint64_t rep = 0; rep < kRealizations; ++rep) {
    bundles += static_cast<double>(run_realization(config, 11, rep).bundles_sent);
  }
  EXPECT_GT(bundles, 0.0);
  EXPECT_TRUE(same_bits(result.mean_bundles, bundles / static_cast<double>(kRealizations)))
      << result.mean_bundles << " vs " << bundles / static_cast<double>(kRealizations);
}

/// Ships a task to node 5, which a two-node system does not have.
class StrayPolicy final : public core::LoadBalancingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "stray"; }
  [[nodiscard]] std::vector<core::TransferDirective> on_start(
      const core::SystemView&) override {
    return {core::TransferDirective{0, 5, 1}};
  }
  [[nodiscard]] std::vector<core::TransferDirective> on_failure(
      int, const core::SystemView&) override {
    return {};
  }
  [[nodiscard]] std::vector<core::TransferDirective> on_recovery(
      int, const core::SystemView&) override {
    return {};
  }
  [[nodiscard]] core::PolicyPtr clone() const override {
    return std::make_unique<StrayPolicy>();
  }
};

TEST(TestbedTest, ReplicationErrorsReachTheCallerAtAnyThreadCount) {
  // The core refuses the directive inside a realization; the exception stops
  // the run and reaches the caller after the workers join.
  const mc::ScenarioConfig config = paper_scenario(40, 20, std::make_unique<StrayPolicy>());
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW((void)run_testbed(config, 16, 3, threads), std::invalid_argument)
        << "threads " << threads;
  }
}

TEST(TestbedTest, LossyStatePlaneStillCompletes) {
  mc::ScenarioConfig config = paper_scenario(60, 40, std::make_unique<core::Lbp2Policy>(1.0));
  config.state_loss_probability = 0.3;
  const mc::RunResult run = run_realization(config, 21, 0);
  EXPECT_EQ(run.tasks_completed, 100u);
}

TEST(TestbedTest, SetupShiftSlowsTransfers) {
  mc::ScenarioConfig fast = paper_scenario(100, 0, std::make_unique<core::Lbp1Policy>(0, 0.5));
  fast.churn_enabled = false;
  fast.transfer_setup_shift = 0.0;
  mc::ScenarioConfig slow = fast.clone();
  slow.transfer_setup_shift = 5.0;  // exaggerated for the test
  const mc::McResult a = run_testbed(fast, 60, 2, 2);
  const mc::McResult b = run_testbed(slow, 60, 2, 2);
  EXPECT_GT(b.mean(), a.mean());
}

}  // namespace
}  // namespace lbsim::testbed
