// Tests for the testbed emulation: the three-layer wiring, state exchange,
// distributed decisions, and consistency with the abstract model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "markov/two_node_mean.hpp"
#include "mc/state_plane.hpp"
#include "testbed/config.hpp"
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

TEST(TestbedConfigTest, PaperPresetAndValidation) {
  TestbedConfig config = paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  EXPECT_NO_THROW(validate(config));
  EXPECT_DOUBLE_EQ(config.params.nodes[0].lambda_d, 1.08);
  TestbedConfig broken = config.clone();
  broken.policy = nullptr;
  EXPECT_THROW(validate(broken), std::invalid_argument);
  // loss = 1.0 is the blackout boundary and must validate; above 1 is
  // malformed.
  TestbedConfig blackout = config.clone();
  blackout.state_loss_probability = 1.0;
  EXPECT_NO_THROW(validate(blackout));
  TestbedConfig bad_loss = config.clone();
  bad_loss.state_loss_probability = 1.0 + 1e-9;
  EXPECT_THROW(validate(bad_loss), std::invalid_argument);
}

TEST(TestbedTest, RealizationCompletesAllTasks) {
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::RunResult run = run_realization(config, 1, 0);
  EXPECT_EQ(run.tasks_completed, 160u);
  EXPECT_GT(run.completion_time, 0.0);
  EXPECT_EQ(run.tasks_moved, 35u);
}

TEST(TestbedTest, DeterministicPerReplication) {
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::RunResult a = run_realization(config, 9, 4);
  const mc::RunResult b = run_realization(config, 9, 4);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(TestbedTest, TraceShowsFlatSegmentsDuringDownTime) {
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp2Policy>(1.0));
  mc::RunTrace trace;
  const mc::RunResult run = run_realization(config, 4, 1, &trace);
  ASSERT_EQ(trace.queue_lengths.size(), 2u);
  EXPECT_EQ(trace.events.count(obs::Kind::kFail), run.failures);
  EXPECT_DOUBLE_EQ(trace.queue_lengths[0].value_at(run.completion_time), 0.0);
  EXPECT_DOUBLE_EQ(trace.queue_lengths[1].value_at(run.completion_time), 0.0);
}

TEST(TestbedTest, NoChurnMatchesNoFailureTheory) {
  // With churn off and the Erlang delay's mean equal to the analytic model's,
  // the emulated mean must sit near the no-failure theory (the delay-law shape
  // difference moves the completion mean by far less than a second here).
  TestbedConfig config = paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.45));
  config.churn_enabled = false;
  config.transfer_setup_shift = 0.0;
  const ExperimentSummary summary = run_experiment(config, 400, 77, 2);
  markov::TwoNodeMeanSolver solver(markov::without_failures(markov::ipdps2006_params()));
  const double theory = solver.lbp1_mean(100, 60, 0, 0.45);
  EXPECT_NEAR(summary.mean(), theory, std::max(1.0, 4.0 * summary.ci95() / 1.96));
}

TEST(TestbedTest, ChurnyMeanNearAbstractModel) {
  // The emulation differs from the abstract model (Erlang bundle delay, setup
  // shift, size-based service) but must land in the same regime as the theory
  // for the Fig. 3 operating point (~117 s); allow 10%.
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const ExperimentSummary summary = run_experiment(config, 300, 13, 2);
  EXPECT_NEAR(summary.mean(), 117.0, 0.10 * 117.0);
}

TEST(TestbedTest, SummaryAggregatesRealizations) {
  const TestbedConfig config =
      paper_testbed(50, 30, std::make_unique<core::Lbp1Policy>(0, 0.3));
  const ExperimentSummary summary = run_experiment(config, 20, 5, 2);
  EXPECT_EQ(summary.completion.count(), 20u);
  EXPECT_EQ(summary.samples.size(), 20u);
  EXPECT_TRUE(std::is_sorted(summary.samples.begin(), summary.samples.end()));
  EXPECT_GT(summary.mean(), 0.0);
}

TEST(TestbedTest, ThreadingInvariance) {
  const TestbedConfig config =
      paper_testbed(40, 20, std::make_unique<core::Lbp2Policy>(1.0));
  const ExperimentSummary a = run_experiment(config, 16, 3, 1);
  const ExperimentSummary b = run_experiment(config, 16, 3, 4);
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
  TestbedConfig config = paper_testbed(40, 20, std::make_unique<core::Lbp2Policy>(1.0));
  config.state_loss_probability = 0.3;
  const ExperimentSummary serial = run_experiment(config, 40, 3, 1);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    const ExperimentSummary other = run_experiment(config, 40, 3, threads);
    const std::string where = "threads " + std::to_string(threads);
    expect_same_stats(serial.completion, other.completion, where + " completion");
    expect_same_stats(serial.state_age, other.state_age, where + " state_age");
    EXPECT_EQ(serial.samples, other.samples) << where;
    EXPECT_TRUE(same_bits(serial.mean_failures, other.mean_failures)) << where;
    EXPECT_TRUE(same_bits(serial.mean_tasks_moved, other.mean_tasks_moved)) << where;
    EXPECT_TRUE(same_bits(serial.mean_state_lost, other.mean_state_lost)) << where;
  }
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
  const TestbedConfig config = paper_testbed(40, 20, std::make_unique<StrayPolicy>());
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW((void)run_experiment(config, 16, 3, threads), std::invalid_argument)
        << "threads " << threads;
  }
}

TEST(TestbedTest, LossyStatePlaneStillCompletes) {
  TestbedConfig config = paper_testbed(60, 40, std::make_unique<core::Lbp2Policy>(1.0));
  config.state_loss_probability = 0.3;
  const mc::RunResult run = run_realization(config, 21, 0);
  EXPECT_EQ(run.tasks_completed, 100u);
}

TEST(TestbedTest, SetupShiftSlowsTransfers) {
  TestbedConfig fast = paper_testbed(100, 0, std::make_unique<core::Lbp1Policy>(0, 0.5));
  fast.churn_enabled = false;
  fast.transfer_setup_shift = 0.0;
  TestbedConfig slow = fast.clone();
  slow.transfer_setup_shift = 5.0;  // exaggerated for the test
  const ExperimentSummary a = run_experiment(fast, 60, 2, 2);
  const ExperimentSummary b = run_experiment(slow, 60, 2, 2);
  EXPECT_GT(b.mean(), a.mean());
}

}  // namespace
}  // namespace lbsim::testbed
