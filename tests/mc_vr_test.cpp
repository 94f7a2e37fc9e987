// Tests for the variance-reduced estimator layer: antithetic pairs and the
// control variate must contract the CI without biasing the estimate (checked
// against the exact solvers), and inadmissible controls must fall back with
// their pinned markers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "cli/registry.hpp"
#include "core/lbp1.hpp"
#include "markov/theory_oracle.hpp"
#include "markov/two_node_mean.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "mc/theory.hpp"

namespace lbsim::mc {
namespace {

/// The paper's two-node system under LBP-1 (theory-mappable, churn on).
ScenarioConfig paper_scenario(bool churn = true) {
  ScenarioConfig config = make_two_node_scenario(markov::ipdps2006_params(), 100, 60,
                                                 std::make_unique<core::Lbp1Policy>(0, 0.35));
  config.churn_enabled = churn;
  return config;
}

/// churn-storm's model: the paper system with 10x failure/recovery rates.
/// Fast churn self-averages across a replication, so mirrored service draws
/// dominate the completion-time variance — the regime where antithetic
/// pairing shines (variance ratio well above 2).
ScenarioConfig storm_scenario() {
  markov::TwoNodeParams params = markov::ipdps2006_params();
  for (auto& node : params.nodes) {
    node.lambda_f *= 10.0;
    node.lambda_r *= 10.0;
  }
  return make_two_node_scenario(params, 100, 60,
                                std::make_unique<core::Lbp1Policy>(0, 0.35));
}

/// Exact completion-time mean for a mappable scenario (test precondition).
double exact_mean(const ScenarioConfig& config) {
  const TheoryMapping mapping = map_to_theory(config);
  EXPECT_TRUE(mapping.ok) << mapping.reason;
  const markov::TheoryPrediction prediction = markov::TheoryOracle{}.mean(mapping.query);
  EXPECT_TRUE(prediction.applicable) << prediction.reason;
  return prediction.mean;
}

TEST(VrModeTest, NamesRoundTripAndGarbageIsRejected) {
  for (const VrMode mode : {VrMode::kNone, VrMode::kAntithetic, VrMode::kControlVariate,
                            VrMode::kBoth}) {
    VrMode parsed = VrMode::kNone;
    EXPECT_TRUE(parse_vr_mode(vr_mode_name(mode), parsed)) << vr_mode_name(mode);
    EXPECT_EQ(parsed, mode);
  }
  VrMode parsed = VrMode::kAntithetic;
  EXPECT_FALSE(parse_vr_mode("antithetical", parsed));
  EXPECT_FALSE(parse_vr_mode("", parsed));
  EXPECT_EQ(parsed, VrMode::kAntithetic);  // untouched on failure
}

TEST(McVrTest, AntitheticContractsTheConfidenceInterval) {
  const ScenarioConfig config = storm_scenario();
  McConfig mc;
  mc.replications = 1000;
  const McResult plain = run_monte_carlo(config, mc);
  mc.vr = VrMode::kAntithetic;
  const McResult vr = run_monte_carlo(config, mc);

  EXPECT_TRUE(vr.vr.antithetic);
  EXPECT_FALSE(vr.vr.control);
  EXPECT_TRUE(vr.vr.fallback.empty()) << vr.vr.fallback;
  EXPECT_EQ(vr.vr.observations, 500u);  // pair means
  // Equal-budget contraction: at this operating point the mirrored pairs
  // cancel most of the service-draw noise (ratio ~2.2-2.7 across seeds); a
  // ratio this far above 1 cannot be luck at 1000 replications.
  EXPECT_GT(vr.vr.variance_ratio, 1.5);
  EXPECT_LT(vr.vr.std_error, plain.std_error());
  // The adjusted estimate agrees with the exact solver at 4 sigma.
  EXPECT_NEAR(vr.vr.mean, exact_mean(config), 4.0 * vr.vr.std_error);
}

TEST(McVrTest, ControlVariateIsUnbiasedAgainstTheory) {
  const ScenarioConfig config = paper_scenario();
  McConfig mc;
  mc.replications = 600;
  mc.vr = VrMode::kControlVariate;
  const McResult result = run_monte_carlo(config, mc);

  EXPECT_TRUE(result.vr.control);
  EXPECT_FALSE(result.vr.antithetic);
  EXPECT_TRUE(result.vr.fallback.empty()) << result.vr.fallback;
  EXPECT_FALSE(result.vr.control_method.empty());
  EXPECT_GT(result.vr.pilot, 0u);
  EXPECT_TRUE(std::isfinite(result.vr.beta));
  // The surrogate's exact mean is the churn-free system's completion time.
  ScenarioConfig surrogate = config.clone();
  surrogate.churn_enabled = false;
  EXPECT_DOUBLE_EQ(result.vr.control_mean, exact_mean(surrogate));
  // Lavenberg-Welch pilot splitting makes the adjusted estimator exactly
  // unbiased; 4 sigma against the exact churn-ful solver.
  EXPECT_NEAR(result.vr.mean, exact_mean(config), 4.0 * result.vr.std_error);
  EXPECT_GE(result.vr.variance_ratio, 1.0);
}

TEST(McVrTest, BothComposesPairsAndControlWithoutBias) {
  const ScenarioConfig config = storm_scenario();
  McConfig mc;
  mc.replications = 1000;
  mc.vr = VrMode::kBoth;
  const McResult result = run_monte_carlo(config, mc);

  EXPECT_TRUE(result.vr.antithetic);
  EXPECT_TRUE(result.vr.control);
  EXPECT_TRUE(result.vr.fallback.empty()) << result.vr.fallback;
  EXPECT_GT(result.vr.variance_ratio, 1.5);
  EXPECT_NEAR(result.vr.mean, exact_mean(config), 4.0 * result.vr.std_error);
}

TEST(McVrTest, ChurnFreeScenarioFallsBackWithPinnedMarker) {
  McConfig mc;
  mc.replications = 100;
  mc.vr = VrMode::kControlVariate;
  const McResult result = run_monte_carlo(paper_scenario(/*churn=*/false), mc);

  EXPECT_FALSE(result.vr.control);
  EXPECT_EQ(result.vr.fallback,
            "control variate unavailable: scenario is churn-free, so the control "
            "would coincide with the target");
  // The fallback leaves a plain (but still valid) estimate behind.
  EXPECT_DOUBLE_EQ(result.vr.mean, result.mean());
  EXPECT_DOUBLE_EQ(result.vr.variance_ratio, 1.0);
}

TEST(McVrTest, NonMappableTopologyFallsBackToAntitheticUnderBoth) {
  // graph-ring restricts the exchange topology, so the churn-free surrogate
  // has no exact solver: under kBoth the control is dropped (pinned marker)
  // while the antithetic component stays active.
  const cli::ScenarioSpec& spec = cli::find_scenario("graph-ring");
  const ScenarioConfig config = spec.build(spec.schema.resolve(cli::RawConfig{}));
  McConfig mc;
  mc.replications = 100;
  mc.vr = VrMode::kBoth;
  const McResult result = run_monte_carlo(config, mc);

  EXPECT_TRUE(result.vr.antithetic);
  EXPECT_FALSE(result.vr.control);
  EXPECT_EQ(result.vr.fallback,
            "control variate unavailable: neighbourhood-restricted topology");
}

TEST(McVrTest, AntitheticRequiresAnEvenReplicationCount) {
  McConfig mc;
  mc.replications = 7;
  mc.vr = VrMode::kAntithetic;
  EXPECT_THROW((void)run_monte_carlo(paper_scenario(), mc), std::invalid_argument);
}

TEST(McVrTest, ExplicitPilotIsHonoured) {
  McConfig mc;
  mc.replications = 200;
  mc.vr = VrMode::kControlVariate;
  mc.cv_pilot = 16;
  const McResult result = run_monte_carlo(paper_scenario(), mc);
  EXPECT_TRUE(result.vr.control);
  EXPECT_EQ(result.vr.pilot, 16u);
  EXPECT_EQ(result.vr.observations, 200u - 16u);
}

/// Bitwise equality (EXPECT_DOUBLE_EQ would allow 4 ULPs).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(McVrTest, VrRunsAreThreadCountInvariant) {
  // The driver folds the per-replication values in replication order, so the
  // adjusted estimate, like every raw statistic, keeps the threads = 1 bits.
  const ScenarioConfig config = storm_scenario();
  McConfig mc;
  mc.replications = 200;
  mc.vr = VrMode::kBoth;
  mc.threads = 1;
  const McResult one = run_monte_carlo(config, mc);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    mc.threads = threads;
    const McResult other = run_monte_carlo(config, mc);
    const std::string where = "threads " + std::to_string(threads);
    EXPECT_TRUE(same_bits(one.vr.mean, other.vr.mean)) << where;
    EXPECT_TRUE(same_bits(one.vr.std_error, other.vr.std_error)) << where;
    EXPECT_TRUE(same_bits(one.vr.beta, other.vr.beta)) << where;
    EXPECT_TRUE(same_bits(one.vr.variance_ratio, other.vr.variance_ratio)) << where;
    EXPECT_TRUE(same_bits(one.mean(), other.mean())) << where;
    EXPECT_TRUE(same_bits(one.completion.variance(), other.completion.variance())) << where;
    EXPECT_TRUE(same_bits(one.mean_failures, other.mean_failures)) << where;
    EXPECT_TRUE(same_bits(one.p50, other.p50)) << where;
    EXPECT_TRUE(same_bits(one.p99, other.p99)) << where;
  }
}

TEST(McVrTest, ReplicationErrorsReachTheCallerAtAnyThreadCount) {
  // A replication that throws stops the run; its exception reaches the
  // caller after the workers join, at any thread count.
  ScenarioConfig config = paper_scenario();
  config.workloads = {100, 60, 10};
  for (const unsigned threads : {1u, 4u}) {
    McConfig mc;
    mc.replications = 40;
    mc.threads = threads;
    mc.vr = VrMode::kAntithetic;
    EXPECT_THROW((void)run_monte_carlo(config, mc), std::invalid_argument)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace lbsim::mc
