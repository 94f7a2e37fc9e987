// Unit tests for the scenario registry: lookup, per-family default builds,
// key overrides reaching the built mc::ScenarioConfig, and policy selection.

#include <gtest/gtest.h>

#include "cli/registry.hpp"
#include "core/periodic.hpp"
#include "markov/params.hpp"
#include "mc/engine.hpp"
#include "mc/steady.hpp"
#include "net/delay_model.hpp"
#include "net/topology.hpp"
#include "test_support.hpp"

namespace lbsim::cli {
namespace {

Config resolve(const ScenarioSpec& spec, const RawConfig& raw = {}) {
  return spec.schema.resolve(raw);
}

TEST(CliRegistry, ListsTheRegisteredFamilies) {
  const auto& registry = scenario_registry();
  ASSERT_GE(registry.size(), 7u);
  for (const char* name : {"paper-two-node", "multi-node", "many-node-churn", "churn-storm",
                           "cold-start", "periodic-rebalance", "custom-delay"}) {
    EXPECT_NO_THROW((void)find_scenario(name)) << name;
  }
}

TEST(CliRegistry, UnknownScenarioNamesKnownOnes) {
  try {
    (void)find_scenario("paper-2-node");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.kind(), ConfigError::Kind::kUnknownKey);
    EXPECT_NE(std::string(e.what()).find("paper-two-node"), std::string::npos);
  }
}

TEST(CliRegistry, EveryFamilyBuildsAndRunsWithDefaults) {
  for (const ScenarioSpec& spec : scenario_registry()) {
    mc::ScenarioConfig scenario = spec.build(resolve(spec));
    ASSERT_GE(scenario.workloads.size(), 2u) << spec.name;
    ASSERT_NE(scenario.policy, nullptr) << spec.name;
    if (spec.steady) {
      // Infinite-horizon families run on the steady engine; one short window
      // proves the family is runnable.
      scenario.steady.tasks = 1000;
      scenario.steady.batches = 8;
      mc::SteadyConfig steady_config;
      steady_config.seed = lbsim::test::kFixedSeed;
      steady_config.threads = 1;
      const mc::SteadyResult result = mc::run_steady(scenario, steady_config);
      EXPECT_GT(result.mean(), 0.0) << spec.name;
      continue;
    }
    // Two cheap replications prove the scenario is actually runnable.
    mc::McConfig mc_config;
    mc_config.replications = 2;
    mc_config.seed = lbsim::test::kFixedSeed;
    mc_config.threads = 1;
    const mc::McResult result = mc::run_monte_carlo(scenario, mc_config);
    EXPECT_GT(result.mean(), 0.0) << spec.name;
  }
}

TEST(CliRegistry, PaperTwoNodeDefaultsMatchThePaper) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec));
  const markov::TwoNodeParams paper = markov::ipdps2006_params();
  ASSERT_EQ(scenario.params.nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[0].lambda_d, paper.nodes[0].lambda_d);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[1].lambda_d, paper.nodes[1].lambda_d);
  EXPECT_EQ(scenario.workloads, (std::vector<std::size_t>{100, 60}));
  EXPECT_EQ(scenario.policy->name(), "LBP-1(K=0.35, sender=0)");
  EXPECT_TRUE(scenario.churn_enabled);
  EXPECT_EQ(scenario.initially_down, 0u);
  EXPECT_EQ(scenario.delay_model, nullptr);  // the analytical default law
}

TEST(CliRegistry, OverridesReachTheBuiltScenario) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  RawConfig raw;
  raw.set("m0", "30");
  raw.set("m1", "70");
  raw.set("policy", "lbp2");
  raw.set("gain", "0.8");
  raw.set("churn", "off");
  raw.set("delay.model", "deterministic");
  raw.set("delay.per_task", "0.1");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec, raw));
  EXPECT_EQ(scenario.workloads, (std::vector<std::size_t>{30, 70}));
  EXPECT_EQ(scenario.policy->name(), "LBP-2(K=0.8)");
  EXPECT_FALSE(scenario.churn_enabled);
  EXPECT_DOUBLE_EQ(scenario.params.per_task_delay_mean, 0.1);
  ASSERT_NE(scenario.delay_model, nullptr);
  EXPECT_DOUBLE_EQ(scenario.delay_model->mean(10), 1.0);  // deterministic 0.1 * 10
}

TEST(CliRegistry, MultiNodeCyclesRateAndWorkloadLists) {
  const ScenarioSpec& spec = find_scenario("multi-node");
  RawConfig raw;
  raw.set("nodes", "5");
  raw.set("lambda_d", "1.0,2.0");
  raw.set("workloads", "10,20,30");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec, raw));
  ASSERT_EQ(scenario.params.nodes.size(), 5u);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[0].lambda_d, 1.0);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[1].lambda_d, 2.0);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[4].lambda_d, 1.0);
  EXPECT_EQ(scenario.workloads, (std::vector<std::size_t>{10, 20, 30, 10, 20}));
}

TEST(CliRegistry, ManyNodeChurnDefaultsCycleAndBalance) {
  const ScenarioSpec& spec = find_scenario("many-node-churn");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec));
  ASSERT_EQ(scenario.params.nodes.size(), 32u);
  EXPECT_EQ(scenario.policy->name(), "LBP-2(K=1)");
  // Imbalanced default workloads cycle with period 4.
  EXPECT_EQ(scenario.workloads[0], 120u);
  EXPECT_EQ(scenario.workloads[1], 20u);
  EXPECT_EQ(scenario.workloads[4], 120u);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[0].lambda_r, 0.25);
  EXPECT_TRUE(scenario.churn_enabled);
}

TEST(CliRegistry, DownMaskAddressesNodesPastBit31) {
  const ScenarioSpec& spec = find_scenario("many-node-churn");
  RawConfig raw;
  raw.set("nodes", "40");
  raw.set("down.mask", std::to_string(std::uint64_t{1} << 35));
  const mc::ScenarioConfig scenario = spec.build(resolve(spec, raw));
  EXPECT_EQ(scenario.initially_down, std::uint64_t{1} << 35);
  // Two cheap replications prove a 40-node scenario with a wide mask runs.
  mc::McConfig mc_config;
  mc_config.replications = 2;
  mc_config.seed = lbsim::test::kFixedSeed;
  mc_config.threads = 1;
  EXPECT_GT(mc::run_monte_carlo(scenario, mc_config).mean(), 0.0);
}

TEST(CliRegistry, ChurnStormScalesTheMeasuredRates) {
  const ScenarioSpec& spec = find_scenario("churn-storm");
  RawConfig raw;
  raw.set("failure.scale", "4");
  raw.set("recovery.scale", "2");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec, raw));
  const markov::TwoNodeParams paper = markov::ipdps2006_params();
  EXPECT_NEAR(scenario.params.nodes[0].lambda_f, 4.0 * paper.nodes[0].lambda_f, 1e-12);
  EXPECT_NEAR(scenario.params.nodes[1].lambda_r, 2.0 * paper.nodes[1].lambda_r, 1e-12);
}

TEST(CliRegistry, ColdStartDefaultsNodeZeroDownButHonoursExplicitMask) {
  const ScenarioSpec& spec = find_scenario("cold-start");
  EXPECT_EQ(spec.build(resolve(spec)).initially_down, 0b01u);
  RawConfig raw;
  raw.set("down.mask", "2");
  EXPECT_EQ(spec.build(resolve(spec, raw)).initially_down, 0b10u);
}

TEST(CliRegistry, PeriodicRebalanceWiresTheTimer) {
  const ScenarioSpec& spec = find_scenario("periodic-rebalance");
  RawConfig raw;
  raw.set("period", "5");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec, raw));
  EXPECT_DOUBLE_EQ(scenario.rebalance_period, 5.0);
  EXPECT_NE(dynamic_cast<core::PeriodicRebalancePolicy*>(scenario.policy.get()), nullptr);
}

TEST(CliRegistry, CustomDelayDefaultsToTheTestbedErlangLaw) {
  const ScenarioSpec& spec = find_scenario("custom-delay");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec));
  ASSERT_NE(scenario.delay_model, nullptr);
  EXPECT_NE(dynamic_cast<net::ErlangPerTaskDelay*>(scenario.delay_model.get()), nullptr);
}

TEST(CliRegistry, Lbp1SenderAutoPicksTheMoreLoadedNode) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  RawConfig raw;
  raw.set("m0", "10");
  raw.set("m1", "90");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec, raw));
  EXPECT_EQ(scenario.policy->name(), "LBP-1(K=0.35, sender=1)");
}

// ---------- env-driven families ----------

TEST(CliRegistry, CorrelatedChurnBuildsTheCalmStormEnvironment) {
  const ScenarioSpec& spec = find_scenario("correlated-churn");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec));
  ASSERT_TRUE(scenario.environment.enabled());
  EXPECT_EQ(scenario.environment.states, 2u);
  EXPECT_EQ(scenario.environment.failure_mult, (std::vector<double>{1.0, 10.0}));
  EXPECT_DOUBLE_EQ(scenario.environment.rate(0, 1), 0.05);
  EXPECT_DOUBLE_EQ(scenario.environment.rate(1, 0), 0.2);
  // Defaults reduce to the paper's two nodes.
  ASSERT_EQ(scenario.params.nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[0].lambda_d, 1.08);
  EXPECT_DOUBLE_EQ(scenario.params.nodes[1].lambda_r, 0.05);
}

TEST(CliRegistry, GeneralKStateEnvironmentNeedsExplicitMultAndGen) {
  const ScenarioSpec& spec = find_scenario("correlated-churn");
  RawConfig raw;
  raw.set("env.states", "3");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);  // no env.mult
  raw.set("env.mult", "1,4,16");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);  // no env.gen
  raw.set("env.gen", "0,0.1,0, 0.2,0,0.1, 0,0.3,0");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec, raw));
  EXPECT_EQ(scenario.environment.states, 3u);
  EXPECT_DOUBLE_EQ(scenario.environment.rate(2, 1), 0.3);
  // env.start must name a state.
  raw.set("env.start", "3");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);
}

TEST(CliRegistry, OpenArrivalsBuildsEnvironmentOnlyWhenAsked) {
  const ScenarioSpec& spec = find_scenario("open-arrivals");
  const mc::ScenarioConfig poisson = spec.build(resolve(spec));
  EXPECT_FALSE(poisson.environment.enabled());
  EXPECT_TRUE(poisson.arrivals.active());
  EXPECT_EQ(poisson.arrivals.process, env::ArrivalSpec::Process::kPoisson);

  RawConfig raw;
  raw.set("arrivals.process", "mmpp");
  raw.set("arrivals.rates", "0.02");
  const mc::ScenarioConfig mmpp = spec.build(resolve(spec, raw));
  ASSERT_TRUE(mmpp.environment.enabled());
  // Single-entry rate list cycles to the environment's state count.
  EXPECT_EQ(mmpp.arrivals.state_rates, (std::vector<double>{0.02, 0.02}));
}

TEST(CliRegistry, ScheduledChurnDefaultsStochasticChurnOff) {
  const ScenarioSpec& spec = find_scenario("scheduled-churn");
  const mc::ScenarioConfig scenario = spec.build(resolve(spec));
  EXPECT_FALSE(scenario.churn_enabled);
  EXPECT_TRUE(scenario.schedule.scheduled(0));
  // Malformed timelines surface as ConfigError on the schedule key, and node
  // ids outside the system fail at build time, not mid-replication.
  RawConfig raw;
  raw.set("schedule", "0:flip@3");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);
  raw.set("schedule", "7:down@1-2");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);
  // Non-finite times parse under strtod but must be rejected here — a NaN
  // would defeat the interval checks and abort mid-replication instead.
  raw.set("schedule", "0:down@nan");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);
  raw.set("schedule", "0:down@1-nan");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);
  raw.set("schedule", "0:down@inf");
  EXPECT_THROW((void)spec.build(resolve(spec, raw)), ConfigError);
}

TEST(CliRegistry, EnvKeyTyposGetDidYouMeanSuggestions) {
  // The did-you-mean machinery must cover the new key groups.
  const auto expect_suggests = [](const char* family, const char* typo,
                                  const char* suggestion) {
    const ScenarioSpec& spec = find_scenario(family);
    RawConfig raw;
    raw.set(typo, "1");
    try {
      (void)spec.schema.resolve(raw);
      FAIL() << typo;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.kind(), ConfigError::Kind::kUnknownKey);
      EXPECT_NE(std::string(e.what()).find(suggestion), std::string::npos)
          << e.what() << " should suggest " << suggestion;
    }
  };
  expect_suggests("correlated-churn", "env.storm.mul", "env.storm.mult");
  expect_suggests("correlated-churn", "env.stats", "env.states");
  expect_suggests("open-arrivals", "arrivals.procss", "arrivals.process");
  expect_suggests("scheduled-churn", "schedul", "schedule");
  expect_suggests("graph-rr", "topology.degre", "topology.degree");
  expect_suggests("graph-ring", "topolgy", "topology");
}

TEST(CliRegistry, GraphFamiliesBuildTheirTopologySpecs) {
  const ScenarioSpec& ring = find_scenario("graph-ring");
  const mc::ScenarioConfig ring_scenario = ring.build(resolve(ring));
  EXPECT_EQ(ring_scenario.topology.kind, net::TopologySpec::Kind::kRing);
  EXPECT_GT(ring_scenario.rebalance_period, 0.0);  // diffusion runs off the round timer
  EXPECT_EQ(ring_scenario.policy->name(), "Diffusion(alpha=0.5)");

  const ScenarioSpec& torus = find_scenario("graph-torus");
  const mc::ScenarioConfig torus_scenario = torus.build(resolve(torus));
  EXPECT_EQ(torus_scenario.topology.kind, net::TopologySpec::Kind::kTorus);

  const ScenarioSpec& rr = find_scenario("graph-rr");
  const mc::ScenarioConfig rr_scenario = rr.build(resolve(rr));
  EXPECT_EQ(rr_scenario.topology.kind, net::TopologySpec::Kind::kRandomRegular);
  EXPECT_EQ(rr_scenario.topology.degree, 4u);
  EXPECT_EQ(rr_scenario.policy->name(), "RandomProbe(d=2)");
  EXPECT_TRUE(rr_scenario.policy->needs_rng());

  // topology=complete takes the historical path (no restriction at all).
  RawConfig raw;
  raw.set("topology", "complete");
  raw.set("policy", "lbp2");
  const mc::ScenarioConfig complete_scenario = ring.build(resolve(ring, raw));
  EXPECT_TRUE(complete_scenario.topology.complete());
  EXPECT_EQ(complete_scenario.rebalance_period, 0.0);
}

TEST(CliRegistry, GraphFamiliesRejectBadConfigurationsAtBuildTime) {
  const ScenarioSpec& rr = find_scenario("graph-rr");
  // Global-state policies cannot run on a sparse graph.
  RawConfig raw;
  raw.set("policy", "lbp2");
  EXPECT_THROW((void)rr.build(resolve(rr, raw)), ConfigError);
  // Infeasible degree: odd n * odd d violates the handshake lemma.
  raw = {};
  raw.set("nodes", "9");
  raw.set("topology.degree", "3");
  EXPECT_THROW((void)rr.build(resolve(rr, raw)), ConfigError);
  // Edge churn needs the environment CTMC that drives it.
  raw = {};
  raw.set("topology.churn.drop", "0.5");
  EXPECT_THROW((void)rr.build(resolve(rr, raw)), ConfigError);
  // A prime node count has no torus factorisation.
  const ScenarioSpec& torus = find_scenario("graph-torus");
  raw = {};
  raw.set("nodes", "13");
  EXPECT_THROW((void)torus.build(resolve(torus, raw)), ConfigError);
  // Explicit dims must multiply to the node count.
  raw = {};
  raw.set("nodes", "16");
  raw.set("topology.rows", "3");
  raw.set("topology.cols", "5");
  EXPECT_THROW((void)torus.build(resolve(torus, raw)), ConfigError);
}

TEST(CliRegistry, FiniteFamilyRefusesZeroArrivalCount) {
  // count = 0 used to silently disable the stream; now that unbounded streams
  // exist (open-steady), a finite family must reject it outright so "no
  // arrivals" cannot be confused with "infinite arrivals".
  const ScenarioSpec& spec = find_scenario("open-arrivals");
  RawConfig raw;
  raw.set("arrivals.count", "0");
  try {
    (void)resolve(spec, raw);
    FAIL() << "arrivals.count=0 should be out of range";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.kind(), ConfigError::Kind::kOutOfRange);
  }
}

TEST(CliRegistry, OpenSteadyBuildsUnboundedStreamAndDerivesRate) {
  const ScenarioSpec& spec = find_scenario("open-steady");
  EXPECT_TRUE(spec.steady);
  const mc::ScenarioConfig scenario = spec.build(resolve(spec));
  EXPECT_TRUE(scenario.arrivals.unbounded);
  EXPECT_EQ(scenario.arrivals.count, 0u);
  // Default rho = 0.5 over 2 nodes of lambda_d = (1.08, 1.86):
  // rate = rho * sum(lambda_d).
  EXPECT_NEAR(scenario.arrivals.rate, 0.5 * (1.08 + 1.86), 1e-12);
  // An explicit rate wins over the rho derivation.
  RawConfig raw;
  raw.set("arrivals.rate", "0.8");
  EXPECT_DOUBLE_EQ(spec.build(resolve(spec, raw)).arrivals.rate, 0.8);
}

}  // namespace
}  // namespace lbsim::cli
