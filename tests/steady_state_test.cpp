// Validation tests for the steady-state (open-system) engine: the stationary
// sojourn-time estimate must agree with the exact M/M/1 law at no-churn
// points across the load range, must *disagree* once churn is switched on
// (the engine can discriminate the paper's failure regime from the clean
// queue), and the MSER-5 warm-up detector must actually find a biased start.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/baseline.hpp"
#include "markov/params.hpp"
#include "mc/scenario.hpp"
#include "mc/steady.hpp"
#include "sim/simulator.hpp"
#include "stochastic/rng.hpp"
#include "stochastic/steady_state.hpp"
#include "test_support.hpp"

namespace lbsim::mc {
namespace {

/// Two homogeneous unit-rate nodes fed by an unbounded Poisson stream split
/// uniformly: each node is an independent M/M/1(rho/ node, 1), stationary
/// sojourn ~ Exp(1 - rho).
ScenarioConfig open_mm1_scenario(double rho, std::size_t tasks) {
  ScenarioConfig config;
  config.params.nodes = {markov::NodeParams{1.0, 0.0, 0.0}, markov::NodeParams{1.0, 0.0, 0.0}};
  config.workloads = {0, 0};
  config.policy = std::make_unique<core::NoBalancingPolicy>();
  config.churn_enabled = false;
  config.arrivals.process = env::ArrivalSpec::Process::kPoisson;
  config.arrivals.rate = 2.0 * rho;  // rho per node after the uniform split
  config.arrivals.unbounded = true;
  config.arrivals.target = -1;
  config.steady.tasks = tasks;
  config.steady.batches = 32;
  return config;
}

TEST(SteadyEngineTest, StationaryMeanMatchesMm1AcrossLoads) {
  // Heavier load needs a longer window: autocorrelation time grows ~1/(1-rho)^2.
  const struct {
    double rho;
    std::size_t tasks;
  } points[] = {{0.3, 20000}, {0.7, 40000}, {0.9, 120000}};
  for (const auto& pt : points) {
    const ScenarioConfig config = open_mm1_scenario(pt.rho, pt.tasks);
    const OpenTheory theory = map_to_open_theory(config);
    ASSERT_TRUE(theory.ok) << theory.reason;
    ASSERT_TRUE(theory.has_law);
    EXPECT_NEAR(theory.mean, 1.0 / (1.0 - pt.rho), 1e-12);

    SteadyConfig sc;
    sc.seed = test::kFixedSeed;
    const SteadyResult result = run_steady(config, sc);
    EXPECT_PRED4(test::within_sigmas, result.mean(), result.std_error(), theory.mean, 4.0)
        << "rho = " << pt.rho;
    // The exact law pins the quantiles too: median ln(2)/(1-rho) within 10%.
    EXPECT_NEAR_REL(result.p50, std::log(2.0) / (1.0 - pt.rho), 0.10);
  }
}

TEST(SteadyEngineTest, ChurnShiftsStationarySojournBeyondNoise) {
  // Same offered load, but the servers now fail and recover (availability
  // 5/6): sojourns must sit far above the clean-M/M/1 mean — the steady
  // engine resolves the paper's churn effect, not just the queueing baseline.
  ScenarioConfig config = open_mm1_scenario(0.5, 40000);
  for (markov::NodeParams& node : config.params.nodes) {
    node.lambda_f = 0.05;
    node.lambda_r = 0.25;
  }
  config.churn_enabled = true;
  EXPECT_FALSE(map_to_open_theory(config).ok);  // no closed form under churn

  SteadyConfig sc;
  sc.seed = test::kFixedSeed;
  const SteadyResult result = run_steady(config, sc);
  const double clean_mean = 1.0 / (1.0 - 0.5);
  EXPECT_GT(result.mean(), clean_mean);
  EXPECT_GT((result.mean() - clean_mean) / result.std_error(), 4.0);
  EXPECT_GT(result.mean_failures, 0.0);
}

TEST(SteadyEngineTest, Mser5FindsSyntheticBiasedStart) {
  // 300 observations stuck at a level 25x the stationary mean, then 3000
  // stationary Exp(1) draws: MSER-5 must cut at least the biased prefix (and
  // not gut the series — the cap keeps it under half).
  stoch::RngStream rng(test::kFixedSeed);
  std::vector<double> series;
  for (int i = 0; i < 300; ++i) series.push_back(25.0 + rng.uniform(-0.5, 0.5));
  for (int i = 0; i < 3000; ++i) series.push_back(rng.exponential(1.0));
  const std::size_t cut = stoch::mser5_truncation(series);
  EXPECT_EQ(cut % 5, 0u);
  EXPECT_GE(cut, 300u);
  EXPECT_LE(cut, series.size() / 2);
  // The truncated estimate recovers the stationary mean; the raw one cannot.
  const stoch::BatchMeans truncated = stoch::batch_means(series, cut, 32);
  EXPECT_NEAR(truncated.mean, 1.0, 0.1);
  const stoch::BatchMeans raw = stoch::batch_means(series, 0, 32);
  EXPECT_GT(raw.mean, 2.0);
}

/// Bitwise equality (EXPECT_DOUBLE_EQ would allow 4 ULPs).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(SteadyEngineTest, DeterministicAcrossThreadCounts) {
  // The driver pools the windows in replication order at every thread count.
  const ScenarioConfig config = open_mm1_scenario(0.5, 5000);
  SteadyConfig sc;
  sc.seed = test::kFixedSeed;
  sc.replications = 4;
  sc.threads = 1;
  const SteadyResult a = run_steady(config, sc);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    sc.threads = threads;
    const SteadyResult b = run_steady(config, sc);
    const std::string where = "threads " + std::to_string(threads);
    EXPECT_TRUE(same_bits(a.mean(), b.mean())) << where;
    EXPECT_TRUE(same_bits(a.std_error(), b.std_error())) << where;
    EXPECT_TRUE(same_bits(a.batch.lag1, b.batch.lag1)) << where;
    EXPECT_TRUE(same_bits(a.p50, b.p50)) << where;
    EXPECT_TRUE(same_bits(a.p90, b.p90)) << where;
    EXPECT_TRUE(same_bits(a.p99, b.p99)) << where;
    EXPECT_TRUE(same_bits(a.horizon_time, b.horizon_time)) << where;
    EXPECT_TRUE(same_bits(a.mean_queue_length, b.mean_queue_length)) << where;
    EXPECT_EQ(a.warmup, b.warmup) << where;
    EXPECT_EQ(a.batch.observations, b.batch.observations) << where;
  }
}

TEST(SteadyEngineTest, ReplicationErrorsReachTheCallerAtAnyThreadCount) {
  // run_scenario validates the config inside every replication; the
  // exception reaches the caller after the workers join.
  ScenarioConfig config = open_mm1_scenario(0.5, 1000);
  config.workloads = {0, 0, 0};
  for (const unsigned threads : {1u, 4u}) {
    SteadyConfig sc;
    sc.replications = 4;
    sc.threads = threads;
    EXPECT_THROW((void)run_steady(config, sc), std::invalid_argument) << "threads " << threads;
  }
}

TEST(SteadyEngineTest, FiniteRunRefusesUnboundedArrivals) {
  // An unbounded stream leaves completion time undefined; only the steady
  // probe path may admit it.
  const ScenarioConfig config = open_mm1_scenario(0.5, 5000);
  EXPECT_THROW((void)run_scenario(config, 1, 0), std::invalid_argument);
  des::Simulator sim;
  EXPECT_THROW((void)run_scenario(config, 1, 0, nullptr, sim, SteadyProbe{}),
               std::invalid_argument);
}

TEST(SteadyEngineTest, SpecRejectsUnboundedWithCount) {
  env::ArrivalSpec spec;
  spec.process = env::ArrivalSpec::Process::kPoisson;
  spec.rate = 1.0;
  spec.unbounded = true;
  spec.count = 10;
  EXPECT_THROW(env::validate(spec, 2, nullptr), std::invalid_argument);
}

TEST(SteadyEngineTest, RunSteadyValidatesWindow) {
  ScenarioConfig config = open_mm1_scenario(0.5, 5000);
  SteadyConfig sc;
  sc.seed = test::kFixedSeed;

  ScenarioConfig short_window = config.clone();
  short_window.steady.tasks = 50;
  EXPECT_THROW((void)run_steady(short_window, sc), std::invalid_argument);

  ScenarioConfig bad_batches = config.clone();
  bad_batches.steady.batches = 1;
  EXPECT_THROW((void)run_steady(bad_batches, sc), std::invalid_argument);

  ScenarioConfig closed = config.clone();
  closed.arrivals.unbounded = false;
  closed.arrivals.count = 100;
  EXPECT_THROW((void)run_steady(closed, sc), std::invalid_argument);
}

}  // namespace
}  // namespace lbsim::mc
