// The stochastic environment subsystem: schedule grammar + driver exactness,
// environment CTMC statistics, the FailureProcess hazard-multiplier hook, and
// the statistical reductions the ISSUE pins — MMPP with equal per-state rates
// matches plain Poisson, correlated-churn with storm multiplier 1 matches the
// independent churn-storm baseline, and a one-node schedule reproduces
// initially_down-with-fixed-recovery semantics exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cli/registry.hpp"
#include "env/arrivals.hpp"
#include "env/environment.hpp"
#include "env/schedule.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "node/block_pool.hpp"
#include "node/compute_element.hpp"
#include "node/failure_process.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"

namespace lbsim {
namespace {

mc::ScenarioConfig family_scenario(const std::string& family,
                                   std::vector<std::pair<std::string, std::string>> keys) {
  const cli::ScenarioSpec& spec = cli::find_scenario(family);
  cli::RawConfig raw;
  for (auto& [key, value] : keys) raw.set(key, value);
  return spec.build(spec.schema.resolve(raw));
}

// ---------- schedule grammar ----------

TEST(ScheduleParse, ClosedIntervalMakesTwoTransitions) {
  const env::Schedule schedule = env::parse_schedule("0:down@10-30");
  ASSERT_TRUE(schedule.scheduled(0));
  ASSERT_EQ(schedule.per_node[0].size(), 2u);
  EXPECT_EQ(schedule.per_node[0][0].time, 10.0);
  EXPECT_TRUE(schedule.per_node[0][0].down);
  EXPECT_EQ(schedule.per_node[0][1].time, 30.0);
  EXPECT_FALSE(schedule.per_node[0][1].down);
  EXPECT_FALSE(schedule.down_at_start(0));
}

TEST(ScheduleParse, OpenDownClosedByUpToken) {
  const env::Schedule schedule = env::parse_schedule("1:down@10,up@30");
  ASSERT_TRUE(schedule.scheduled(1));
  EXPECT_FALSE(schedule.scheduled(0));
  ASSERT_EQ(schedule.per_node[1].size(), 2u);
  EXPECT_EQ(schedule.per_node[1][1].time, 30.0);
  EXPECT_FALSE(schedule.per_node[1][1].down);
}

TEST(ScheduleParse, OpenDownWithoutUpIsForever) {
  const env::Schedule schedule = env::parse_schedule("0:down@7");
  ASSERT_EQ(schedule.per_node[0].size(), 1u);  // never recovers
  EXPECT_TRUE(schedule.per_node[0][0].down);
}

TEST(ScheduleParse, RedundantUpAtIntervalEndTolerated) {
  // The ISSUE's grammar example: `down@10-30,up@30` — the up@ marker
  // coincides with the closed interval's end and is a no-op.
  const env::Schedule schedule = env::parse_schedule("0:down@10-30,up@30");
  ASSERT_EQ(schedule.per_node[0].size(), 2u);
}

TEST(ScheduleParse, MultipleClausesAndIntervals) {
  const env::Schedule schedule = env::parse_schedule("0:down@0-5,down@40-50;1:down@20-25");
  EXPECT_TRUE(schedule.down_at_start(0));
  ASSERT_EQ(schedule.per_node[0].size(), 4u);
  ASSERT_EQ(schedule.per_node[1].size(), 2u);
  EXPECT_FALSE(schedule.empty());
  EXPECT_TRUE(env::parse_schedule("").empty());
}

TEST(ScheduleParse, RejectsMalformedTimelines) {
  EXPECT_THROW((void)env::parse_schedule("down@1-2"), std::invalid_argument);   // no node
  EXPECT_THROW((void)env::parse_schedule("0:flip@3"), std::invalid_argument);   // token
  EXPECT_THROW((void)env::parse_schedule("0:down@5-2"), std::invalid_argument); // end<=begin
  EXPECT_THROW((void)env::parse_schedule("0:down@x-2"), std::invalid_argument); // time
  EXPECT_THROW((void)env::parse_schedule("0:down@-3-5"), std::invalid_argument);
  EXPECT_THROW((void)env::parse_schedule("0:up@4"), std::invalid_argument);     // no open
  EXPECT_THROW((void)env::parse_schedule("0:down@1-9,down@5-12"),
               std::invalid_argument);                                          // overlap
  EXPECT_THROW((void)env::parse_schedule("0:down@1,down@9"), std::invalid_argument);
  EXPECT_THROW((void)env::parse_schedule("0:down@1-2;0:down@5-6"),
               std::invalid_argument);                                          // dup clause
  EXPECT_THROW(env::validate(env::parse_schedule("5:down@1-2"), 2),
               std::invalid_argument);                                          // node range
}

// ---------- environment CTMC ----------

TEST(EnvironmentSpec, ValidationCatchesShapeErrors) {
  env::EnvironmentSpec spec = env::make_calm_storm(10.0, 0.05, 0.2);
  EXPECT_NO_THROW(env::validate(spec));
  spec.failure_mult = {1.0};
  EXPECT_THROW(env::validate(spec), std::invalid_argument);
  spec = env::make_calm_storm(10.0, 0.05, 0.2);
  spec.initial_state = 2;
  EXPECT_THROW(env::validate(spec), std::invalid_argument);
  spec = env::make_calm_storm(10.0, 0.05, 0.2);
  spec.failure_mult[1] = 0.0;
  EXPECT_THROW(env::validate(spec), std::invalid_argument);
}

TEST(Environment, OccupancyMatchesStationaryDistribution) {
  // Two-state chain: stationary storm fraction = on / (on + off) = 0.2.
  des::Simulator sim;
  stoch::RngStream rng(test::kFixedSeed, 7);
  env::Environment environment(sim, env::make_calm_storm(10.0, 0.05, 0.2), rng);
  double storm_time = 0.0;
  double entered_storm = -1.0;
  environment.set_transition_listener([&](std::size_t, std::size_t to) {
    if (to == 1) {
      entered_storm = sim.now();
    } else if (entered_storm >= 0.0) {
      storm_time += sim.now() - entered_storm;
      entered_storm = -1.0;
    }
  });
  environment.start();
  const double horizon = 200000.0;
  sim.run_until(horizon);
  if (environment.state() == 1) storm_time += horizon - entered_storm;
  EXPECT_GT(environment.transitions(), 1000u);
  EXPECT_NEAR(storm_time / horizon, 0.2, 0.02);
}

TEST(Environment, AbsorbingStateStopsTransitions) {
  // One-way chain: calm -> storm at rate 1, storm absorbing.
  des::Simulator sim;
  stoch::RngStream rng(test::kFixedSeed, 8);
  env::EnvironmentSpec spec;
  spec.states = 2;
  spec.failure_mult = {1.0, 3.0};
  spec.generator = {0.0, 1.0, 0.0, 0.0};
  env::Environment environment(sim, spec, rng);
  environment.start();
  sim.run();
  EXPECT_EQ(environment.state(), 1u);
  EXPECT_EQ(environment.transitions(), 1u);
  EXPECT_DOUBLE_EQ(environment.failure_multiplier(), 3.0);
}

// ---------- FailureProcess hazard modulation ----------

// The churn driver draws Exp(lambda_f) / multiplier on its stream, so a
// second stream on the same seed predicts each failure instant exactly. The
// CEs (size-based, rate 1) hold no task, so churn timers are the only events
// besides the test's own.

TEST(FailureProcessModulation, MultiplierScalesDeterministicTtfExactly) {
  // A draw under multiplier 4 fires at exactly a quarter of the unscaled
  // draw: hazard scaling is time scaling.
  des::Simulator sim;
  stoch::RngStream service_rng(1), churn_rng(2), expect(2);
  node::BlockPool pool;
  node::ComputeElement ce(pool);
  ce.reset(sim, 0, 1.0, /*size_based=*/true, service_rng);
  node::FailureProcess process(ce);
  process.reset(sim, 1.0 / 8.0, 1.0 / 100.0, churn_rng);
  double failed_at = -1.0;
  process.set_failure_handler([&](int) { failed_at = sim.now(); });
  process.set_hazard_multiplier(4.0);
  process.start();
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(failed_at, expect.exponential(1.0 / 8.0) / 4.0);
  EXPECT_FALSE(ce.is_up());
}

TEST(FailureProcessModulation, MultiplierChangeReArmsThePendingDraw) {
  des::Simulator sim;
  stoch::RngStream service_rng(1), churn_rng(2), expect(2);
  node::BlockPool pool;
  node::ComputeElement ce(pool);
  ce.reset(sim, 0, 1.0, /*size_based=*/true, service_rng);
  node::FailureProcess process(ce);
  process.reset(sim, 1.0 / 8.0, 1.0 / 100.0, churn_rng);
  double failed_at = -1.0;
  process.set_failure_handler([&](int) { failed_at = sim.now(); });
  process.start();
  // For this seed the first failure is armed past t = 1, where the
  // multiplier changes.
  ASSERT_GT(expect.exponential(1.0 / 8.0), 1.0);
  sim.schedule_at(1.0, [&] { process.set_hazard_multiplier(4.0); });
  ASSERT_TRUE(sim.step());  // t = 1: the pending draw is cancelled
  ASSERT_TRUE(sim.step());
  // Re-armed at t = 1 with a fresh draw at four times the hazard.
  EXPECT_EQ(failed_at, 1.0 + expect.exponential(1.0 / 8.0) / 4.0);
  EXPECT_FALSE(ce.is_up());
}

// ---------- batch-size law ----------

TEST(ArrivalBatches, GeometricLawHasTheConfiguredMean) {
  env::ArrivalSpec spec;
  spec.process = env::ArrivalSpec::Process::kPoisson;
  spec.rate = 1.0;
  spec.count = 1;
  spec.batch = 5;
  spec.batch_law = env::ArrivalSpec::BatchLaw::kGeometric;
  stoch::RngStream rng(test::kFixedSeed, 11);
  double total = 0.0;
  std::size_t min_size = 1000;
  const std::size_t draws = 20000;
  for (std::size_t i = 0; i < draws; ++i) {
    const std::size_t size = env::sample_batch_size(spec, rng);
    total += static_cast<double>(size);
    min_size = std::min(min_size, size);
  }
  EXPECT_EQ(min_size, 1u);  // support starts at 1
  // Geometric(mean 5) has sd sqrt(20) ~ 4.5; 4 sigma of the sample mean.
  EXPECT_NEAR(total / static_cast<double>(draws), 5.0, 4.0 * 4.5 / std::sqrt(draws));
  spec.batch_law = env::ArrivalSpec::BatchLaw::kFixed;
  EXPECT_EQ(env::sample_batch_size(spec, rng), 5u);
}

// ---------- engine integration ----------

TEST(EnvScenario, OpenArrivalAccountingIsExact) {
  mc::ScenarioConfig scenario = family_scenario(
      "open-arrivals",
      {{"arrivals.count", "3"}, {"arrivals.batch", "10"}, {"policy", "none"}});
  mc::RunTrace trace;
  const mc::RunResult result = mc::run_scenario(scenario, test::kFixedSeed, 0, &trace);
  EXPECT_EQ(result.tasks_arrived, 30u);
  EXPECT_EQ(result.tasks_completed, 100u + 60u + 30u);
  EXPECT_EQ(trace.events.count(obs::Kind::kInject), 3u);
  EXPECT_GT(result.completion_time, 0.0);
}

TEST(EnvScenario, RandomTargetAndGeometricBatchesRun) {
  mc::ScenarioConfig scenario = family_scenario(
      "open-arrivals", {{"arrivals.target", "-1"}, {"arrivals.batch.law", "geometric"},
                        {"arrivals.batch", "8"}, {"arrivals.count", "6"}});
  const mc::RunResult result = mc::run_scenario(scenario, test::kFixedSeed, 1, nullptr);
  EXPECT_GE(result.tasks_arrived, 6u);  // every epoch carries >= 1 task
  EXPECT_GT(result.completion_time, 0.0);
}

TEST(EnvScenario, EnvironmentTransitionsSurfaceInResultAndTrace) {
  mc::ScenarioConfig scenario = family_scenario(
      "correlated-churn", {{"env.storm.on", "0.5"}, {"env.storm.off", "0.5"}});
  mc::RunTrace trace;
  const mc::RunResult result = mc::run_scenario(scenario, test::kFixedSeed, 0, &trace);
  EXPECT_GT(result.env_transitions, 0u);
  EXPECT_EQ(trace.events.count(obs::Kind::kEnvTransition), result.env_transitions);
}

TEST(EnvScenario, ScheduleReproducesInitiallyDownWithFixedRecoveryExactly) {
  // One scheduled node holding all the work: `0:down@0-R` must behave exactly
  // like "node 0 starts down and recovers at R" — the failure fires at t = 0,
  // the recovery at t = R, and (the service draws being untouched) the
  // completion time shifts by exactly R against the unscheduled run.
  const double recovery = 5.0;
  mc::ScenarioConfig scheduled = family_scenario(
      "scheduled-churn",
      {{"schedule", "0:down@0-5"}, {"policy", "none"}, {"m0", "40"}, {"m1", "0"}});
  mc::ScenarioConfig plain = family_scenario(
      "paper-two-node",
      {{"churn", "false"}, {"policy", "none"}, {"m0", "40"}, {"m1", "0"}});
  for (const std::uint64_t seed : {test::kFixedSeed, test::kAltSeed}) {
    // Replication 0 shares stream ids between the two layouts (base = 0).
    mc::RunTrace trace;
    const mc::RunResult with_schedule = mc::run_scenario(scheduled, seed, 0, &trace);
    const mc::RunResult without = mc::run_scenario(plain, seed, 0, nullptr);
    EXPECT_EQ(with_schedule.failures, 1u);
    EXPECT_EQ(with_schedule.recoveries, 1u);
    ASSERT_EQ(trace.events.count(obs::Kind::kFail), 1u);
    ASSERT_EQ(trace.events.count(obs::Kind::kRecover), 1u);
    trace.events.for_each([&](const obs::Record& record) {
      if (record.kind_enum() == obs::Kind::kFail) {
        EXPECT_DOUBLE_EQ(record.time, 0.0);
      }
      if (record.kind_enum() == obs::Kind::kRecover) {
        EXPECT_DOUBLE_EQ(record.time, recovery);
      }
    });
    EXPECT_NEAR(with_schedule.completion_time, without.completion_time + recovery, 1e-9);
  }
}

TEST(EnvScenario, ScheduledNodeIgnoresStochasticChurnAndDownMaskConflicts) {
  // churn=true still drives only the unscheduled node; the scheduled node's
  // churn is its timeline alone.
  mc::ScenarioConfig scenario = family_scenario(
      "scheduled-churn", {{"schedule", "0:down@1-2"}, {"churn", "true"}});
  const mc::RunResult result = mc::run_scenario(scenario, test::kFixedSeed, 0, nullptr);
  EXPECT_GE(result.failures, 1u);
  // A schedule clause and an initially_down bit on the same node conflict.
  scenario.initially_down = 0b01;
  EXPECT_THROW((void)mc::run_scenario(scenario, test::kFixedSeed, 0, nullptr),
               std::invalid_argument);
}

// ---------- the ISSUE's statistical reductions (4 sigma) ----------

double sigma_distance(const mc::McResult& a, const mc::McResult& b) {
  const double sigma =
      std::sqrt(a.std_error() * a.std_error() + b.std_error() * b.std_error());
  return std::fabs(a.mean() - b.mean()) / sigma;
}

TEST(EnvReduction, MmppWithEqualRatesMatchesPlainPoisson) {
  // Equal per-state rates make the modulation vacuous: by memorylessness the
  // re-armed gaps are distributionally plain Poisson.
  mc::McConfig mc_cfg;
  mc_cfg.seed = test::kFixedSeed;
  mc_cfg.replications = 400;
  const mc::McResult poisson = mc::run_monte_carlo(
      family_scenario("open-arrivals",
                      {{"arrivals.process", "poisson"}, {"arrivals.rate", "0.04"}}),
      mc_cfg);
  mc_cfg.seed = test::kAltSeed;  // independent sample for the two-sample z-test
  const mc::McResult mmpp = mc::run_monte_carlo(
      family_scenario("open-arrivals", {{"arrivals.process", "mmpp"},
                                        {"arrivals.rates", "0.04"},
                                        {"env.storm.on", "0.5"},
                                        {"env.storm.off", "0.5"}}),
      mc_cfg);
  EXPECT_LT(sigma_distance(poisson, mmpp), 4.0)
      << "poisson=" << poisson.mean() << " mmpp=" << mmpp.mean();
}

TEST(EnvReduction, StormMultiplierOneMatchesIndependentChurnStorm) {
  // correlated-churn pinned to churn-storm's scaled rates with a unit storm
  // multiplier: the environment re-arms are distributional no-ops, so the two
  // families must agree in mean.
  mc::McConfig mc_cfg;
  mc_cfg.seed = test::kFixedSeed;
  mc_cfg.replications = 400;
  const mc::McResult storm =
      mc::run_monte_carlo(family_scenario("churn-storm", {}), mc_cfg);
  mc_cfg.seed = test::kAltSeed;
  const mc::McResult correlated = mc::run_monte_carlo(
      family_scenario("correlated-churn", {{"lambda_f", "0.5"},
                                           {"lambda_r", "1,0.5"},
                                           {"env.storm.mult", "1"},
                                           {"env.storm.on", "0.5"},
                                           {"env.storm.off", "0.5"}}),
      mc_cfg);
  EXPECT_LT(sigma_distance(storm, correlated), 4.0)
      << "churn-storm=" << storm.mean() << " correlated=" << correlated.mean();
}

TEST(EnvReduction, StormMultiplierActuallyHurts) {
  // Discrimination check for the reduction above: a 20x storm on the same
  // rates must be far more than 4 sigma slower.
  mc::McConfig mc_cfg;
  mc_cfg.seed = test::kFixedSeed;
  mc_cfg.replications = 300;
  const mc::McResult calm = mc::run_monte_carlo(
      family_scenario("correlated-churn", {{"env.storm.mult", "1"}}), mc_cfg);
  const mc::McResult stormy = mc::run_monte_carlo(
      family_scenario("correlated-churn", {{"env.storm.mult", "20"}}), mc_cfg);
  EXPECT_GT(stormy.mean(), calm.mean());
  EXPECT_GT(sigma_distance(calm, stormy), 4.0);
}

}  // namespace
}  // namespace lbsim
