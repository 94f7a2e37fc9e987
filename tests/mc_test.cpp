// Tests for the Monte-Carlo engine: determinism, threading invariance, task
// conservation, and — the central validation — agreement with the
// regeneration-theory solver on the same model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/registry.hpp"
#include "core/baseline.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "core/policy.hpp"
#include "markov/two_node_mean.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "mc/steady.hpp"
#include "sim/simulator.hpp"
#include "stochastic/stats.hpp"
#include "test_support.hpp"
#include "testbed/config.hpp"
#include "testbed/experiment.hpp"

namespace lbsim::mc {
namespace {

ScenarioConfig fig3_scenario(double gain, bool churn = true) {
  ScenarioConfig config = make_two_node_scenario(markov::ipdps2006_params(), 100, 60,
                                                 std::make_unique<core::Lbp1Policy>(0, gain));
  config.churn_enabled = churn;
  return config;
}

TEST(ScenarioTest, SingleRunCompletesAllTasks) {
  const ScenarioConfig config = fig3_scenario(0.35);
  const RunResult run = run_scenario(config, 1, 0);
  EXPECT_EQ(run.tasks_completed, 160u);
  EXPECT_GT(run.completion_time, 0.0);
  EXPECT_EQ(run.bundles_sent, 1u);
  EXPECT_EQ(run.tasks_moved, 35u);
}

TEST(ScenarioTest, DeterministicGivenSeedAndReplication) {
  const ScenarioConfig config = fig3_scenario(0.35);
  const RunResult a = run_scenario(config, 7, 3);
  const RunResult b = run_scenario(config, 7, 3);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.failures, b.failures);
}

ScenarioConfig family_config(const std::string& family, const std::string& overrides = "") {
  const cli::ScenarioSpec& spec = cli::find_scenario(family);
  cli::RawConfig raw;
  std::istringstream words(overrides);
  for (std::string word; words >> word;) cli::apply_override(raw, word);
  return spec.build(spec.schema.resolve(raw));
}

/// Bitwise equality (EXPECT_DOUBLE_EQ would allow 4 ULPs).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A golden pin: bit-exact, with both values at 17 significant digits on a
/// mismatch so a re-pin can be read off the failure.
void expect_golden(double actual, double golden, const std::string& what) {
  EXPECT_TRUE(same_bits(actual, golden))
      << what << ": got " << std::setprecision(17) << actual << ", golden " << golden;
}

void expect_same_stats(const stoch::RunningStats& a, const stoch::RunningStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_TRUE(same_bits(a.mean(), b.mean())) << what << " mean";
  EXPECT_TRUE(same_bits(a.variance(), b.variance())) << what << " variance";
  EXPECT_TRUE(same_bits(a.min(), b.min())) << what << " min";
  EXPECT_TRUE(same_bits(a.max(), b.max())) << what << " max";
}

// A new RunResult field must be added to expect_bit_identical below.
static_assert(sizeof(RunResult) == 11 * 8 + 2 * sizeof(stoch::RunningStats));

/// Every RunResult field, bit for bit.
void expect_bit_identical(const RunResult& a, const RunResult& b, const std::string& where) {
  EXPECT_TRUE(same_bits(a.completion_time, b.completion_time)) << where;
  EXPECT_EQ(a.failures, b.failures) << where;
  EXPECT_EQ(a.recoveries, b.recoveries) << where;
  EXPECT_EQ(a.bundles_sent, b.bundles_sent) << where;
  EXPECT_EQ(a.tasks_moved, b.tasks_moved) << where;
  EXPECT_EQ(a.tasks_completed, b.tasks_completed) << where;
  EXPECT_EQ(a.tasks_arrived, b.tasks_arrived) << where;
  EXPECT_EQ(a.env_transitions, b.env_transitions) << where;
  EXPECT_EQ(a.state_packets_lost, b.state_packets_lost) << where;
  EXPECT_EQ(a.policy_decisions, b.policy_decisions) << where;
  EXPECT_EQ(a.policy_decisions_empty, b.policy_decisions_empty) << where;
  expect_same_stats(a.sojourn, b.sojourn, where + " sojourn");
  expect_same_stats(a.state_age, b.state_age, where + " state_age");
}

/// Both traces, record for record and bit for bit: the event log and the
/// per-node queue-length series.
void expect_same_trace(const RunTrace& a, const RunTrace& b, const std::string& where) {
  const std::vector<obs::Record> ra = a.events.to_vector();
  const std::vector<obs::Record> rb = b.events.to_vector();
  ASSERT_EQ(ra.size(), rb.size()) << where;
  EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(obs::Record)), 0) << where;
  ASSERT_EQ(a.queue_lengths.size(), b.queue_lengths.size()) << where;
  for (std::size_t i = 0; i < a.queue_lengths.size(); ++i) {
    const auto& pa = a.queue_lengths[i].points();
    const auto& pb = b.queue_lengths[i].points();
    ASSERT_EQ(pa.size(), pb.size()) << where << " node " << i;
    for (std::size_t k = 0; k < pa.size(); ++k) {
      EXPECT_TRUE(same_bits(pa[k].time, pb[k].time) && same_bits(pa[k].value, pb[k].value))
          << where << " node " << i << " point " << k;
    }
  }
}

TEST(ScenarioTest, ReusedSimulatorBitIdenticalToFreshOne) {
  // The engine recycles one simulator (and its pooled event slab) across a
  // worker's replication loop; recycling must not change a single bit.
  const ScenarioConfig config = fig3_scenario(0.35);
  des::Simulator reused;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const RunResult fresh = run_scenario(config, 7, rep);
    const RunResult recycled = run_scenario(config, 7, rep, nullptr, reused);
    expect_bit_identical(fresh, recycled, "rep " + std::to_string(rep));
  }
}

/// Delegates to another policy and throws from its second failure hook of a
/// replication, so the replication dies mid-run with work queued everywhere.
class ThrowsAtSecondFailure final : public core::LoadBalancingPolicy {
 public:
  explicit ThrowsAtSecondFailure(core::PolicyPtr inner) : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return "throws"; }
  [[nodiscard]] std::vector<core::TransferDirective> on_start(
      const core::SystemView& view) override {
    failures_ = 0;
    return inner_->on_start(view);
  }
  [[nodiscard]] std::vector<core::TransferDirective> on_failure(
      int node, const core::SystemView& view) override {
    if (++failures_ == 2) throw std::runtime_error("policy failed mid-run");
    return inner_->on_failure(node, view);
  }
  [[nodiscard]] core::PolicyPtr clone() const override {
    return std::make_unique<ThrowsAtSecondFailure>(inner_->clone());
  }

 private:
  core::PolicyPtr inner_;
  int failures_ = 0;
};

TEST(ScenarioTest, ReusedWorkspaceIsInvisibleInAnyOrder) {
  // One simulator and one workspace serve a scrambled sequence of very
  // different replications; each must match the same replication run on a
  // fresh workspace, trace included. The sequence covers a larger n before a
  // smaller one, 1,008 t = 0 bundles, edge churn, periodic and scheduled
  // churn, a steady window that stops with a bundle in flight, a VR target
  // and its churn-free surrogate, and a replication that throws mid-run.
  constexpr std::uint64_t kSeed = 0x5eed2006;
  const ScenarioConfig many = family_config("many-node-churn", "nodes=64");
  const ScenarioConfig two = family_config("paper-two-node");
  const ScenarioConfig graph =
      family_config("graph-rr", "topology.churn.drop=0.5 env.storm.mult=4");
  const ScenarioConfig periodic = family_config("periodic-rebalance");
  const ScenarioConfig scheduled = family_config("scheduled-churn");
  const ScenarioConfig open = family_config("open-steady");
  ScenarioConfig surrogate = two.clone();  // as the control-variate plan builds it
  surrogate.churn_enabled = false;
  surrogate.initially_down = 0;
  surrogate.schedule = env::Schedule{};
  ScenarioConfig throwing = many.clone();
  throwing.policy = std::make_unique<ThrowsAtSecondFailure>(many.policy->clone());

  struct Job {
    std::string label;
    const ScenarioConfig* config;
    std::uint64_t replication;
    std::size_t target_completions = 0;  // > 0: a steady window
    bool antithetic = false;
    /// Run right after on the same workspace (the VR surrogate after its target).
    const ScenarioConfig* then = nullptr;
  };
  std::vector<Job> jobs;
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    const std::string r = " rep " + std::to_string(rep);
    jobs.push_back({"many-node-churn nodes=64" + r, &many, rep});
    jobs.push_back({"paper-two-node" + r, &two, rep});
    jobs.push_back({"graph-rr edge churn" + r, &graph, rep});
    jobs.push_back({"periodic-rebalance" + r, &periodic, rep});
    jobs.push_back({"scheduled-churn" + r, &scheduled, rep});
    // The antithetic VR pair (2k, 2k+1): one stream id, the odd member mirrored.
    jobs.push_back({"vr pair" + r, &two, 3, 0, rep == 1, &surrogate});
  }
  jobs.push_back({"open-steady window", &open, 0, 590});
  jobs.push_back({"throwing policy", &throwing, 0});
  std::mt19937 shuffle_rng(20061);
  std::shuffle(jobs.begin(), jobs.end(), shuffle_rng);

  des::Simulator sim;
  ReplicationWorkspace workspace;
  const auto check = [&](const Job& job, const ScenarioConfig& config) {
    RunControls controls;
    controls.antithetic = job.antithetic;
    RunTrace fresh_trace;
    RunTrace reused_trace;
    std::vector<double> fresh_log;
    std::vector<double> reused_log;
    des::Simulator fresh_sim;
    const RunResult fresh =
        run_scenario(config, kSeed, job.replication, &fresh_trace, fresh_sim,
                     SteadyProbe{job.target_completions, &fresh_log}, controls);
    controls.workspace = &workspace;
    const RunResult reused =
        run_scenario(config, kSeed, job.replication, &reused_trace, sim,
                     SteadyProbe{job.target_completions, &reused_log}, controls);
    expect_bit_identical(fresh, reused, job.label);
    expect_same_trace(fresh_trace, reused_trace, job.label);
    EXPECT_EQ(fresh_log, reused_log) << job.label;
    if (job.target_completions > 0) {
      // The window really did stop with a bundle still in flight.
      EXPECT_GT(fresh_trace.events.count(obs::Kind::kTransferSend),
                fresh_trace.events.count(obs::Kind::kTransferDeliver));
    }
  };
  for (const Job& job : jobs) {
    if (job.config == &throwing) {
      RunControls controls;
      controls.workspace = &workspace;
      EXPECT_THROW(
          (void)run_scenario(throwing, kSeed, 0, nullptr, sim, SteadyProbe{}, controls),
          std::runtime_error);
      continue;
    }
    check(job, *job.config);
    if (job.then != nullptr) check(job, *job.then);
  }
}

TEST(ScenarioTest, PerTaskRecordsPopulateLatencyStats) {
  // Since the per-task-record refactor every completed task contributes a
  // sojourn; the aggregate must be consistent with the run's scalar counters.
  const ScenarioConfig config = fig3_scenario(0.35);
  const RunResult run = run_scenario(config, 1, 0);
  EXPECT_EQ(run.sojourn.count(), run.tasks_completed);
  EXPECT_LE(run.sojourn.max(), run.completion_time);
  EXPECT_GT(run.mean_queue_length(), 0.0);
}

TEST(ScenarioTest, SteadyProbeStopsAtTargetAndLogsSojourns) {
  const ScenarioConfig config = fig3_scenario(0.35);
  des::Simulator sim;
  std::vector<double> log;
  SteadyProbe probe;
  probe.target_completions = 40;
  probe.sojourn_log = &log;
  const RunResult partial = run_scenario(config, 1, 0, nullptr, sim, probe);
  EXPECT_EQ(partial.sojourn.count(), 40u);
  EXPECT_EQ(log.size(), 40u);
  const RunResult full = run_scenario(config, 1, 0);
  EXPECT_LT(partial.completion_time, full.completion_time);
  // A default probe is exactly the finite run.
  des::Simulator sim2;
  const RunResult defaulted = run_scenario(config, 1, 0, nullptr, sim2, SteadyProbe{});
  EXPECT_DOUBLE_EQ(defaulted.completion_time, full.completion_time);
}

TEST(ScenarioTest, DifferentReplicationsDiffer) {
  const ScenarioConfig config = fig3_scenario(0.35);
  const RunResult a = run_scenario(config, 7, 0);
  const RunResult b = run_scenario(config, 7, 1);
  EXPECT_NE(a.completion_time, b.completion_time);
}

TEST(ScenarioTest, NoChurnMeansNoFailures) {
  const ScenarioConfig config = fig3_scenario(0.35, /*churn=*/false);
  const RunResult run = run_scenario(config, 7, 0);
  EXPECT_EQ(run.failures, 0u);
  EXPECT_EQ(run.recoveries, 0u);
}

TEST(ScenarioTest, NoBalancingMovesNothing) {
  ScenarioConfig config = make_two_node_scenario(
      markov::ipdps2006_params(), 40, 20, std::make_unique<core::NoBalancingPolicy>());
  const RunResult run = run_scenario(config, 3, 0);
  EXPECT_EQ(run.tasks_moved, 0u);
  EXPECT_EQ(run.bundles_sent, 0u);
  EXPECT_EQ(run.tasks_completed, 60u);
}

TEST(ScenarioTest, Lbp2TransfersAtFailureInstants) {
  ScenarioConfig config = make_two_node_scenario(markov::ipdps2006_params(), 100, 60,
                                                 std::make_unique<core::Lbp2Policy>(1.0));
  RunTrace trace;
  const RunResult run = run_scenario(config, 11, 2, &trace);
  // Every failure of a non-empty node triggers a backup transfer directive;
  // at least check consistency between the log and the counters.
  EXPECT_EQ(trace.events.count(obs::Kind::kFail), run.failures);
  EXPECT_EQ(trace.events.count(obs::Kind::kRecover), run.recoveries);
  EXPECT_EQ(trace.events.count(obs::Kind::kTransferSend), run.bundles_sent);
  EXPECT_EQ(trace.events.count(obs::Kind::kTransferDeliver), run.bundles_sent);
}

TEST(ScenarioTest, TraceRecordsQueues) {
  ScenarioConfig config = fig3_scenario(0.35);
  RunTrace trace;
  const RunResult run = run_scenario(config, 5, 0, &trace);
  ASSERT_EQ(trace.queue_lengths.size(), 2u);
  // Initial queue sizes after the t = 0 transfer: 65 and 60.
  EXPECT_DOUBLE_EQ(trace.queue_lengths[0].value_at(0.0), 65.0);
  EXPECT_DOUBLE_EQ(trace.queue_lengths[1].value_at(0.0), 60.0);
  // Queues end empty at the completion time.
  EXPECT_DOUBLE_EQ(trace.queue_lengths[0].value_at(run.completion_time), 0.0);
  EXPECT_DOUBLE_EQ(trace.queue_lengths[1].value_at(run.completion_time), 0.0);
}

TEST(ScenarioTest, InitiallyDownNodeDelaysCompletion) {
  ScenarioConfig up = make_two_node_scenario(markov::ipdps2006_params(), 20, 20,
                                             std::make_unique<core::NoBalancingPolicy>());
  up.churn_enabled = false;
  ScenarioConfig down = up.clone();
  down.initially_down = 0b01;
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = 200;
  const double mean_up = run_monte_carlo(up, mc).mean();
  const double mean_down = run_monte_carlo(down, mc).mean();
  EXPECT_GT(mean_down, mean_up);
}

TEST(ScenarioTest, ValidatesConfig) {
  ScenarioConfig config = fig3_scenario(0.35);
  config.workloads = {100};
  EXPECT_THROW((void)run_scenario(config, 1, 0), std::invalid_argument);
  ScenarioConfig no_policy = fig3_scenario(0.35);
  no_policy.policy = nullptr;
  EXPECT_THROW((void)run_scenario(no_policy, 1, 0), std::invalid_argument);
}

// ---------- engine ----------

/// Every statistic of two MC results, bit for bit.
void expect_same_result(const McResult& a, const McResult& b, const std::string& where) {
  expect_same_stats(a.completion, b.completion, where + " completion");
  expect_same_stats(a.sojourn, b.sojourn, where + " sojourn");
  EXPECT_TRUE(same_bits(a.mean_failures, b.mean_failures)) << where;
  EXPECT_TRUE(same_bits(a.mean_tasks_moved, b.mean_tasks_moved)) << where;
  EXPECT_TRUE(same_bits(a.mean_bundles, b.mean_bundles)) << where;
  EXPECT_TRUE(same_bits(a.p50, b.p50)) << where << " p50";
  EXPECT_TRUE(same_bits(a.p90, b.p90)) << where << " p90";
  EXPECT_TRUE(same_bits(a.p99, b.p99)) << where << " p99";
  EXPECT_EQ(a.samples, b.samples) << where;
}

/// Runs `mc` at threads 2, 3, 4 and 8 and expects the threads = 1 bits.
void expect_thread_count_independent(const ScenarioConfig& config, McConfig mc) {
  mc.threads = 1;
  const McResult serial = run_monte_carlo(config, mc);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    mc.threads = threads;
    expect_same_result(serial, run_monte_carlo(config, mc),
                       "threads " + std::to_string(threads));
  }
}

TEST(EngineTest, ThreadCountDoesNotChangeEstimate) {
  // The driver folds the replications in replication order at every thread
  // count, so every statistic keeps the threads = 1 bits.
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = 60;
  expect_thread_count_independent(fig3_scenario(0.35), mc);
}

TEST(EngineTest, StreamingQuantilesPastTheCapAreThreadCountIndependent) {
  // Past kExactQuantileCap the P² sketches see the completion times in
  // replication order too. A tiny two-node scenario keeps the run short.
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = kExactQuantileCap + 100;
  expect_thread_count_independent(
      make_two_node_scenario(markov::ipdps2006_params(), 1, 1,
                             std::make_unique<core::NoBalancingPolicy>()),
      mc);
}

TEST(EngineTest, ReplicationErrorsReachTheCallerAtAnyThreadCount) {
  // validate_config runs inside every replication. Its exception stops the
  // run and reaches the caller after the workers join, at any thread count.
  ScenarioConfig config = fig3_scenario(0.35);
  config.workloads = {100, 60, 10};
  for (const unsigned threads : {1u, 4u}) {
    McConfig mc;
    mc.replications = 40;
    mc.threads = threads;
    EXPECT_THROW((void)run_monte_carlo(config, mc), std::invalid_argument)
        << "threads " << threads;
  }
}

TEST(EngineTest, CollectSamplesSortedAndSized) {
  const ScenarioConfig config = fig3_scenario(0.35);
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = 50;
  mc.collect_samples = true;
  const McResult result = run_monte_carlo(config, mc);
  ASSERT_EQ(result.samples.size(), 50u);
  EXPECT_TRUE(std::is_sorted(result.samples.begin(), result.samples.end()));
  EXPECT_EQ(result.completion.count(), 50u);
}

TEST(EngineTest, QuantilesExactAndThreadCountIndependentBelowCap) {
  // Below kExactQuantileCap the p50/p90/p99 summary must be the exact type-7
  // quantiles of the (thread-count-independent) sample multiset — identical
  // across thread counts and to a collect_samples run, with no samples kept.
  const ScenarioConfig config = fig3_scenario(0.35);
  McConfig serial;
  serial.seed = test::kFixedSeed;
  serial.replications = 40;
  serial.threads = 1;
  McConfig parallel = serial;
  parallel.threads = 4;
  McConfig sampled = serial;
  sampled.collect_samples = true;

  const McResult a = run_monte_carlo(config, serial);
  const McResult b = run_monte_carlo(config, parallel);
  const McResult c = run_monte_carlo(config, sampled);
  EXPECT_TRUE(a.samples.empty());
  EXPECT_TRUE(b.samples.empty());
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p90, b.p90);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.p50, c.sample_quantile(0.5));
  EXPECT_DOUBLE_EQ(a.p90, c.sample_quantile(0.9));
  EXPECT_DOUBLE_EQ(a.p99, c.sample_quantile(0.99));
  EXPECT_LE(a.p50, a.p90);
  EXPECT_LE(a.p90, a.p99);
}

TEST(EngineTest, StreamingQuantilesKickInPastTheCapAndStayAccurate) {
  // One reliable node holding a single task: each replication is one
  // Exp(lambda_d0) draw, so kExactQuantileCap+1 replications stay cheap and
  // the analytic quantiles ln(1/(1-q))/lambda are known. The streaming P²
  // path (no samples kept) must land within a few percent of them.
  markov::TwoNodeParams params = markov::without_failures(markov::ipdps2006_params());
  ScenarioConfig config =
      make_two_node_scenario(params, 1, 0, std::make_unique<core::NoBalancingPolicy>());
  config.churn_enabled = false;
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = kExactQuantileCap + 1;
  const McResult result = run_monte_carlo(config, mc);
  EXPECT_TRUE(result.samples.empty());
  const double rate = params.nodes[0].lambda_d;
  EXPECT_NEAR(result.p50, std::log(2.0) / rate, 0.05 * std::log(2.0) / rate);
  EXPECT_NEAR(result.p90, std::log(10.0) / rate, 0.05 * std::log(10.0) / rate);
  EXPECT_NEAR(result.p99, std::log(100.0) / rate, 0.10 * std::log(100.0) / rate);
}

TEST(EngineTest, CiShrinksWithReplications) {
  const ScenarioConfig config = fig3_scenario(0.35);
  McConfig small;
  small.seed = test::kFixedSeed;
  small.replications = 30;
  McConfig big;
  big.seed = test::kFixedSeed;
  big.replications = 300;
  EXPECT_GT(run_monte_carlo(config, small).ci95(), run_monte_carlo(config, big).ci95());
}

// ---------- MC vs theory: the model-consistency pillar ----------

TEST(EngineTest, Lbp1MeanMatchesTheoryWithChurn) {
  const ScenarioConfig config = fig3_scenario(0.35);
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = 1500;
  const McResult result = run_monte_carlo(config, mc);
  markov::TwoNodeMeanSolver solver(markov::ipdps2006_params());
  const double theory = solver.lbp1_mean(100, 60, 0, 0.35);
  EXPECT_PRED4(test::within_sigmas, result.mean(), result.std_error(), theory, 4.0);
}

TEST(EngineTest, Lbp1MeanMatchesTheoryNoChurn) {
  const ScenarioConfig config = fig3_scenario(0.45, /*churn=*/false);
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = 1500;
  const McResult result = run_monte_carlo(config, mc);
  markov::TwoNodeMeanSolver solver(markov::without_failures(markov::ipdps2006_params()));
  const double theory = solver.lbp1_mean(100, 60, 0, 0.45);
  EXPECT_PRED4(test::within_sigmas, result.mean(), result.std_error(), theory, 4.0);
}

TEST(EngineTest, NoBalancingMatchesTheoryZeroGain) {
  ScenarioConfig config = make_two_node_scenario(
      markov::ipdps2006_params(), 30, 20, std::make_unique<core::NoBalancingPolicy>());
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = 1500;
  const McResult result = run_monte_carlo(config, mc);
  markov::TwoNodeMeanSolver solver(markov::ipdps2006_params());
  EXPECT_PRED4(test::within_sigmas, result.mean(), result.std_error(),
               solver.mean_no_transit(30, 20), 4.0);
}

// ---------- bit-identity pins: one golden table per engine ----------

struct Golden {
  const char* family;
  double mean, p50, p90, p99;
  /// Space-separated key=value overrides of the family defaults.
  const char* overrides = "";
};

// Finite mc-engine families: mean/p50/p90/p99 captured at reps = 25,
// seed = 0x5eed2006, threads = 2 immediately BEFORE the per-task
// latency-record refactor. Since the ordered replication driver every thread
// count folds what one thread folds; the means that differed in their last
// bits between two threads and one were re-pinned to the one-thread value.
constexpr Golden kFiniteGoldens[] = {
    {"paper-two-node", 116.61103909863549, 107.71454130988158, 188.55173836262219,
     208.28513126617386},
    {"multi-node", 114.13477969202215, 116.1862243825236, 141.83479394478616,
     193.13308647396823},
    {"many-node-churn", 101.33114750456271, 101.31374530663599, 116.17344501814591,
     122.42756594569006},
    // The depth-512 event queue of perfbench's churn_n256 workload.
    {"many-node-churn", 180.51955574181608, 180.55607145477813, 192.56112681386475,
     206.38442112475821, "nodes=256"},
    {"churn-storm", 111.78423985018357, 111.88879213943629, 136.79691514282791,
     155.00134569499735},
    {"cold-start", 123.65141736552651, 119.10093513663399, 165.3986302898856,
     201.56176966447714},
    {"periodic-rebalance", 110.9883685731524, 103.87991250127128, 171.39297012558143,
     196.37284876354502},
    {"correlated-churn", 156.87487419645066, 139.5359549129561, 269.55959839699125,
     320.34221592067752},
    {"open-arrivals", 295.33829574617027, 296.75439276080596, 357.44840725420784,
     379.21143155637697},
    {"scheduled-churn", 70.323470686165223, 70.997272651383753, 76.883301486046832,
     85.790294700289891},
    {"custom-delay", 116.61103909863549, 107.71454130988158, 188.55173836262219,
     208.28513126617386},
    // Graph families at their sparse defaults (ring diffusion, torus
    // diffusion, random-regular probe): pins the topology layer's RNG
    // stream layout (the appended policy stream) and graph construction.
    {"graph-ring", 93.550722634097752, 97.427238370790761, 111.70778963688932,
     116.75978295048613},
    {"graph-torus", 125.90302528653859, 123.33412498899476, 140.73850116371136,
     236.11077561407274},
    {"graph-rr", 84.375246079558039, 84.287993329342541, 93.297972085717447,
     102.7413167186772},
    // The CI graph-family smoke: edge churn driven by the environment CTMC,
    // the only path through the per-state churned graph copies.
    {"graph-rr", 88.057449143129759, 88.323278964408559, 97.797090019681576,
     100.57565363386985, "topology.churn.drop=0.5 env.storm.mult=4"},
};

// Testbed engine, captured at realizations = 25, seed = 0x5eed2006,
// threads = 2 (re-pinned, like the finite rows, to the one-thread means and
// state ages when the ordered driver made them thread-count independent),
// each row mapped through testbed::from_scenario (the
// `--engine=testbed` path). The rows pin the testbed's seams into the
// replication core: the lossy-exchange defaults (bursty channel), the i.i.d.
// state-plane fallback, the env-coupled channel floor under storms,
// paper-two-node, cold-start (the testbed's t = 0 order for an initially-down
// node) and multi-node (n = 4 node-local views). Both schedule every event
// through the compute elements, the failure processes, the size-calibrated
// service law, the Erlang bundle delays and the net::Network state plane.
// Quantiles are type-7 over the sorted samples; state_age is pooled over
// every decision of every realization.
struct TestbedGolden {
  const char* family;
  double mean, p50, p90, p99, state_lost;
  double failures, moved, age_mean, age_max;
  /// Space-separated key=value overrides of the family defaults.
  const char* overrides = "";
};
constexpr TestbedGolden kTestbedGoldens[] = {
    {"lossy-exchange", 107.65976303445393, 101.28501216129942, 161.4381855767939,
     206.34947606645389, 39.479999999999997, 6.6399999999999997, 59.640000000000001,
     0.8142225835463891, 8.5198114660562254},
    {"lossy-exchange", 107.92061265811235, 101.28501216129942, 159.52619429197534,
     206.34947606645389, 62.920000000000002, 6.6799999999999997, 60.479999999999997,
     0.80742686978491096, 4.7209146612686368, "channel.states=0 exchange.loss=0.3"},
    {"lossy-exchange", 151.30296681205076, 135.68279855901915, 215.00939172866831,
     285.55797533723307, 91.799999999999997, 12.92, 71, 1.5758345087760124, 19.319879139052674,
     "channel.env=true"},
    {"paper-two-node", 115.41743491738112, 103.40865953887524, 183.96694883745772,
     212.64492180115855, 0.0, 7.1600000000000001, 35, 0.45833424197088068, 0.99696608982023704},
    {"cold-start", 132.03483191210236, 133.16390751905755, 180.76150990470529,
     231.58216087811721, 0.0, 7.3600000000000003, 73, 0.42829244606558631, 0.99539387650750655},
    {"multi-node", 110.38057704622521, 103.79775330331739, 136.85180573879379,
     144.11052323736956, 0.0, 15.24, 117.68000000000001, 0.43647633453590046,
     1.0006459100272593},
};

// Steady engine at the CI smoke's size (steady.tasks = 5000,
// steady.batches = 16), seed = 0x5eed2006, two replications on threads = 2:
// mean sojourn and the post-warm-up quantiles.
constexpr Golden kSteadyGoldens[] = {
    {"open-steady", 4.0972549921537462, 1.9565797332566603, 10.646047004138383,
     27.477560683320927},
};

TEST(EngineTest, FiniteFamilyStatisticsBitIdenticalToPreRefactorGoldens) {
  // Bit-exact on purpose: stamping arrival/first-service times must not move
  // a single RNG draw or reorder a single event in the finite path, and any
  // change to the stream layout or to the fold order shows up here as a
  // 17-digit mismatch.
  for (const Golden& g : kFiniteGoldens) {
    const cli::ScenarioSpec& spec = cli::find_scenario(g.family);
    ASSERT_FALSE(spec.steady) << g.family;
    cli::RawConfig raw;
    std::istringstream overrides(g.overrides);
    for (std::string word; overrides >> word;) cli::apply_override(raw, word);
    const ScenarioConfig config = spec.build(spec.schema.resolve(raw));
    McConfig mc;
    mc.seed = 0x5eed2006;
    mc.replications = 25;
    mc.threads = 2;
    const McResult result = run_monte_carlo(config, mc);
    const std::string row = std::string(g.family) + " " + g.overrides;
    expect_golden(result.mean(), g.mean, row + " mean");
    expect_golden(result.p50, g.p50, row + " p50");
    expect_golden(result.p90, g.p90, row + " p90");
    expect_golden(result.p99, g.p99, row + " p99");
  }
}

TEST(EngineTest, TestbedFamilyStatisticsBitIdenticalToGoldens) {
  for (const TestbedGolden& g : kTestbedGoldens) {
    const testbed::TestbedConfig config =
        testbed::from_scenario(family_config(g.family, g.overrides));
    const testbed::ExperimentSummary result =
        testbed::run_experiment(config, 25, 0x5eed2006, /*threads=*/2);
    const std::string row = std::string(g.family) + " " + g.overrides;
    expect_golden(result.mean(), g.mean, row + " mean");
    expect_golden(stoch::quantile_sorted(result.samples, 0.50), g.p50, row + " p50");
    expect_golden(stoch::quantile_sorted(result.samples, 0.90), g.p90, row + " p90");
    expect_golden(stoch::quantile_sorted(result.samples, 0.99), g.p99, row + " p99");
    expect_golden(result.mean_state_lost, g.state_lost, row + " state_lost");
    expect_golden(result.mean_failures, g.failures, row + " failures");
    expect_golden(result.mean_tasks_moved, g.moved, row + " moved");
    expect_golden(result.state_age.mean(), g.age_mean, row + " age_mean");
    expect_golden(result.state_age.max(), g.age_max, row + " age_max");
  }
}

TEST(EngineTest, SteadyFamilyStatisticsBitIdenticalToGoldens) {
  for (const Golden& g : kSteadyGoldens) {
    const cli::ScenarioSpec& spec = cli::find_scenario(g.family);
    ASSERT_TRUE(spec.steady) << g.family;
    cli::RawConfig raw;
    raw.set("steady.tasks", "5000");
    raw.set("steady.batches", "16");
    SteadyConfig steady;
    steady.seed = 0x5eed2006;
    steady.replications = 2;
    steady.threads = 2;
    const SteadyResult result = run_steady(spec.build(spec.schema.resolve(raw)), steady);
    const std::string row = g.family;
    expect_golden(result.mean(), g.mean, row + " mean");
    expect_golden(result.p50, g.p50, row + " p50");
    expect_golden(result.p90, g.p90, row + " p90");
    expect_golden(result.p99, g.p99, row + " p99");
  }
}

/// Delegates to another policy and logs every hook it runs, with node 0's up
/// flag as that hook's view shows it.
class HookSpy final : public core::LoadBalancingPolicy {
 public:
  struct Call {
    char hook;  ///< 's' on_start, 'f' on_failure, 'r' on_recovery
    int node;   ///< the hook's node argument (-1 for on_start)
    bool node0_up;
  };

  HookSpy(core::PolicyPtr inner, std::vector<Call>& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<core::TransferDirective> on_start(
      const core::SystemView& view) override {
    log_.push_back({'s', -1, view.is_up(0)});
    return inner_->on_start(view);
  }
  [[nodiscard]] std::vector<core::TransferDirective> on_failure(
      int node, const core::SystemView& view) override {
    log_.push_back({'f', node, view.is_up(0)});
    return inner_->on_failure(node, view);
  }
  [[nodiscard]] std::vector<core::TransferDirective> on_recovery(
      int node, const core::SystemView& view) override {
    log_.push_back({'r', node, view.is_up(0)});
    return inner_->on_recovery(node, view);
  }
  [[nodiscard]] core::PolicyPtr clone() const override {
    return std::make_unique<HookSpy>(inner_->clone(), log_);
  }

 private:
  core::PolicyPtr inner_;
  std::vector<Call>& log_;
};

/// The nodes of the policy_decision records a replication wrote at t = 0.
std::vector<int> decisions_at_zero(const RunTrace& trace) {
  std::vector<int> nodes;
  trace.events.for_each([&](const obs::Record& r) {
    if (r.kind_enum() == obs::Kind::kPolicyDecision && r.time == 0.0) nodes.push_back(r.node);
  });
  return nodes;
}

TEST(EngineTest, EachEngineShowsAnInitiallyDownNodeAtTimeZeroItsOwnWay) {
  // cold-start starts node 0 down. The MC engine fails it after the t = 0
  // split: on_start sees it up, then on_failure(0) fires at t = 0. The
  // testbed fails it before any decision, as an initial condition: every
  // node's on_start sees it down, and no churn hook fires at t = 0.
  ScenarioConfig mc_config = family_config("cold-start");
  ASSERT_TRUE(mc_config.starts_down(0));
  std::vector<HookSpy::Call> mc_log;
  mc_config.policy = std::make_unique<HookSpy>(std::move(mc_config.policy), mc_log);
  RunTrace mc_trace;
  mc_trace.record_queues = false;
  (void)run_scenario(mc_config, 0x5eed2006, 0, &mc_trace);
  ASSERT_GE(mc_log.size(), 2u);
  EXPECT_EQ(mc_log[0].hook, 's');
  EXPECT_TRUE(mc_log[0].node0_up);
  EXPECT_EQ(mc_log[1].hook, 'f');
  EXPECT_EQ(mc_log[1].node, 0);
  EXPECT_FALSE(mc_log[1].node0_up);
  EXPECT_EQ(decisions_at_zero(mc_trace), (std::vector<int>{-1, 0}));

  ScenarioConfig bed_scenario = family_config("cold-start");
  std::vector<HookSpy::Call> bed_log;
  bed_scenario.policy = std::make_unique<HookSpy>(std::move(bed_scenario.policy), bed_log);
  const testbed::TestbedConfig bed = testbed::from_scenario(std::move(bed_scenario));
  RunTrace bed_trace;
  bed_trace.record_queues = false;
  (void)testbed::run_realization(bed, 0x5eed2006, 0, &bed_trace);
  ASSERT_GE(bed_log.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(bed_log[i].hook, 's') << "node " << i;
    EXPECT_FALSE(bed_log[i].node0_up) << "node " << i;
  }
  EXPECT_EQ(decisions_at_zero(bed_trace), (std::vector<int>{0, 1}));
  bed_trace.events.for_each([](const obs::Record& r) {
    EXPECT_FALSE(r.kind_enum() == obs::Kind::kFail && r.time == 0.0);
  });
}

TEST(EngineTest, EveryRegistryFamilyHasAGoldenRow) {
  // A new family must pin its engine's stream layout and event order: a
  // golden row in the table of the engine it routes to.
  const auto pinned = [](const auto& table, const std::string& family) {
    return std::any_of(std::begin(table), std::end(table),
                       [&](const auto& golden) { return family == golden.family; });
  };
  for (const cli::ScenarioSpec& spec : cli::scenario_registry()) {
    bool has_row = pinned(kFiniteGoldens, spec.name);
    if (spec.testbed) has_row = pinned(kTestbedGoldens, spec.name);
    if (spec.steady) has_row = pinned(kSteadyGoldens, spec.name);
    EXPECT_TRUE(has_row) << spec.name << " has no golden row";
  }
}

TEST(EngineTest, GraphFamiliesAtCompleteTopologyMatchGlobalBaselineBitIdentically) {
  // topology=complete must take the historical full-mesh path untouched: a
  // graph-* family pinned to multi-node's exact defaults (same nodes, rates,
  // workloads, policy) must reproduce multi-node's statistics to the last
  // bit — same RNG stream layout, same event order, no topology machinery.
  const cli::ScenarioSpec& baseline_spec = cli::find_scenario("multi-node");
  McConfig mc;
  mc.seed = 0x5eed2006;
  mc.replications = 25;
  mc.threads = 2;
  const McResult baseline =
      run_monte_carlo(baseline_spec.build(baseline_spec.schema.resolve({})), mc);
  for (const char* family : {"graph-ring", "graph-torus", "graph-rr"}) {
    const cli::ScenarioSpec& spec = cli::find_scenario(family);
    cli::RawConfig raw;
    raw.set("topology", "complete");
    raw.set("policy", "lbp2");
    raw.set("nodes", "4");
    raw.set("lambda_r", "0.1");
    raw.set("workloads", "100,60");
    const McResult result = run_monte_carlo(spec.build(spec.schema.resolve(raw)), mc);
    EXPECT_DOUBLE_EQ(result.mean(), baseline.mean()) << family;
    EXPECT_DOUBLE_EQ(result.p50, baseline.p50) << family;
    EXPECT_DOUBLE_EQ(result.p90, baseline.p90) << family;
    EXPECT_DOUBLE_EQ(result.p99, baseline.p99) << family;
  }
}

TEST(EngineTest, SharedTopologyStatesMatchPerReplicationBuilds) {
  // The engines build a scenario's graphs once and share them with every
  // replication; run_scenario on its own builds them itself. Every
  // replication must come out the same either way, on the static and the
  // churned graph, at any thread count and under antithetic pairing.
  const cli::ScenarioSpec& spec = cli::find_scenario("graph-rr");
  constexpr std::size_t kReps = 12;
  for (const bool churned : {false, true}) {
    cli::RawConfig raw;
    if (churned) {
      raw.set("topology.churn.drop", "0.5");
      raw.set("env.storm.mult", "4");
    }
    const ScenarioConfig config = spec.build(spec.schema.resolve(raw));
    ASSERT_EQ(build_topology_states(config).size(), churned ? 2u : 1u);
    for (const VrMode vr : {VrMode::kNone, VrMode::kAntithetic}) {
      const bool antithetic = vr == VrMode::kAntithetic;
      std::vector<double> expected;
      des::Simulator sim;
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        RunControls controls;
        controls.antithetic = antithetic && rep % 2 == 1;
        const std::uint64_t stream_rep = antithetic ? rep / 2 : rep;
        expected.push_back(run_scenario(config, 0x5eed2006, stream_rep, nullptr, sim,
                                        SteadyProbe{}, controls)
                               .completion_time);
      }
      std::sort(expected.begin(), expected.end());
      for (const unsigned threads : {1u, 4u}) {
        McConfig mc;
        mc.seed = 0x5eed2006;
        mc.replications = kReps;
        mc.threads = threads;
        mc.vr = vr;
        mc.collect_samples = true;
        EXPECT_EQ(run_monte_carlo(config, mc).samples, expected)
            << "churned " << churned << " vr " << vr_mode_name(vr) << " threads " << threads;
      }
    }
  }
}

TEST(EngineTest, Lbp2MatchesPaperBallpark) {
  // Paper: MC mean 112.43 s for LBP-2 on (100, 60) with K = 1 (500 runs).
  ScenarioConfig config = make_two_node_scenario(markov::ipdps2006_params(), 100, 60,
                                                 std::make_unique<core::Lbp2Policy>(1.0));
  McConfig mc;
  mc.seed = test::kFixedSeed;
  mc.replications = 1500;
  const McResult result = run_monte_carlo(config, mc);
  EXPECT_NEAR_REL(result.mean(), 112.43, 0.055);
}

}  // namespace
}  // namespace lbsim::mc
