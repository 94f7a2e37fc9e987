// Tests for the periodic-rebalance extension policy and its engine wiring.

#include <gtest/gtest.h>

#include "core/lbp2.hpp"
#include "core/periodic.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "policy_oracle.hpp"
#include "test_support.hpp"

namespace lbsim::core {
namespace {

class FakeView final : public SystemView {
 public:
  FakeView(std::vector<markov::NodeParams> nodes, std::vector<std::size_t> queues)
      : nodes_(std::move(nodes)), queues_(std::move(queues)), up_(nodes_.size(), true) {
    rates_.assign(nodes_);
  }
  [[nodiscard]] std::size_t node_count() const override { return nodes_.size(); }
  [[nodiscard]] std::size_t queue_length(int n) const override {
    return queues_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] bool is_up(int n) const override {
    return up_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] std::span<const markov::NodeParams> params() const override {
    return nodes_;
  }
  [[nodiscard]] double per_task_delay_mean() const override { return 0.02; }
  [[nodiscard]] const RateTable& rates() const override { return rates_; }
  void set_down(int n) { up_.at(static_cast<std::size_t>(n)) = false; }
  void set_queue(int n, std::size_t q) { queues_.at(static_cast<std::size_t>(n)) = q; }

 private:
  std::vector<markov::NodeParams> nodes_;
  std::vector<std::size_t> queues_;
  std::vector<bool> up_;
  RateTable rates_;
};

std::vector<markov::NodeParams> paper_nodes() {
  return {markov::NodeParams{1.08, 0.05, 0.1}, markov::NodeParams{1.86, 0.05, 0.05}};
}

TEST(PeriodicPolicyTest, RebalancesOnTick) {
  PeriodicRebalancePolicy policy(5.0, 1.0);
  FakeView view(paper_nodes(), {100, 200});
  const auto directives = policy.on_periodic(view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 1);
  EXPECT_EQ(directives[0].count, 10u);  // full excess of node 1
}

TEST(PeriodicPolicyTest, BalancedTickIsSilent) {
  PeriodicRebalancePolicy policy(5.0, 1.0);
  FakeView view(paper_nodes(), {110, 190});  // ~fair shares for (1.08, 1.86)
  EXPECT_TRUE(policy.on_periodic(view).empty());
}

TEST(PeriodicPolicyTest, DownSenderSkipped) {
  PeriodicRebalancePolicy policy(5.0, 1.0);
  FakeView view(paper_nodes(), {100, 200});
  view.set_down(1);
  EXPECT_TRUE(policy.on_periodic(view).empty());
}

TEST(PeriodicPolicyTest, FailureCompensationOptIn) {
  PeriodicRebalancePolicy bare(5.0, 1.0, false);
  PeriodicRebalancePolicy with_lf(5.0, 1.0, true);
  FakeView view(paper_nodes(), {50, 50});
  EXPECT_TRUE(bare.on_failure(1, view).empty());
  const auto directives = with_lf.on_failure(1, view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].count, 9u);  // eq. (8) constant
}

TEST(PeriodicPolicyTest, TicksMatchThePerPairLoopWithDownSenders) {
  stoch::RngStream rng(test::kFixedSeed);
  std::size_t moved = 0;
  std::size_t filtered = 0;  // ticks where a down sender's split was dropped
  for (const std::size_t n : {2, 3, 5, 64, 256}) {
    for (int trial = 0; trial < (n >= 64 ? 2 : 8); ++trial) {
      const FakeView view = oracle::make_view<FakeView>(oracle::random_system(rng, n));
      for (const double gain : {0.0, 0.35, 1.0}) {
        PeriodicRebalancePolicy policy(5.0, gain);
        const auto expected = oracle::balance(view, gain, /*skip_down_senders=*/true);
        EXPECT_EQ(policy.on_periodic(view), expected) << "n=" << n << " K=" << gain;
        EXPECT_EQ(policy.on_start(view), expected) << "n=" << n << " K=" << gain;
        for (const auto& d : expected) moved += d.count;
        if (expected != oracle::balance(view, gain)) ++filtered;
      }
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(filtered, 0u);
}

TEST(PeriodicPolicyTest, CompensationMatchesThePerPairLoop) {
  // Periodic's eq. (8) path ignores peer state: down peers still receive.
  stoch::RngStream rng(test::kFixedSeed, 1);
  std::size_t moved = 0;
  for (const std::size_t n : {2, 3, 5, 64, 256}) {
    for (int trial = 0; trial < 6; ++trial) {
      const FakeView view = oracle::make_view<FakeView>(oracle::random_system(rng, n));
      PeriodicRebalancePolicy with_lf(5.0, 1.0, true);
      PeriodicRebalancePolicy bare(5.0, 1.0, false);
      for (std::size_t j = 0; j < n; j += std::max<std::size_t>(1, n / 16)) {
        const int node = static_cast<int>(j);
        const auto expected = oracle::failure(node, view);
        EXPECT_EQ(with_lf.on_failure(node, view), expected) << "n=" << n << " j=" << j;
        EXPECT_TRUE(bare.on_failure(node, view).empty());
        for (const auto& d : expected) moved += d.count;
      }
    }
  }
  EXPECT_GT(moved, 0u);

  // A node without a recovery law: LF is undefined once its queue is
  // non-empty, exactly as in the per-pair loop; an empty queue never throws.
  FakeView view({markov::NodeParams{1.0, 0.05, 0.1}, markov::NodeParams{1.5, 0.0, 0.0}},
                {5, 0});
  PeriodicRebalancePolicy with_lf(5.0, 1.0, true);
  EXPECT_TRUE(with_lf.on_failure(1, view).empty());
  view.set_queue(1, 3);
  EXPECT_THROW((void)oracle::failure(1, view), std::invalid_argument);
  EXPECT_THROW((void)with_lf.on_failure(1, view), std::invalid_argument);
}

TEST(PeriodicPolicyTest, ValidationAndClone) {
  EXPECT_THROW(PeriodicRebalancePolicy(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(PeriodicRebalancePolicy(5.0, 1.5), std::invalid_argument);
  PeriodicRebalancePolicy policy(5.0, 0.8, true);
  EXPECT_EQ(policy.clone()->name(), policy.name());
  EXPECT_NE(policy.name().find("+LF"), std::string::npos);
}

TEST(PeriodicPolicyTest, DefaultPoliciesIgnoreTicks) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {100, 200});
  EXPECT_TRUE(policy.on_periodic(view).empty());
}

// ---------- engine wiring ----------

TEST(PeriodicEngineTest, TimerFiresAndMovesTasks) {
  mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 100, 60,
      std::make_unique<PeriodicRebalancePolicy>(5.0, 1.0));
  config.rebalance_period = 5.0;
  const mc::RunResult run = mc::run_scenario(config, 3, 0);
  EXPECT_EQ(run.tasks_completed, 160u);
  // The t=0 balance plus several periodic corrections.
  EXPECT_GT(run.bundles_sent, 1u);
}

TEST(PeriodicEngineTest, PeriodicBeatsOneShotUnderChurn) {
  // Continuous correction absorbs churn-induced imbalance better than the
  // same policy with its timer disabled.
  mc::McConfig mc_cfg;
  mc_cfg.replications = 500;
  mc::ScenarioConfig periodic = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 160, 0,
      std::make_unique<PeriodicRebalancePolicy>(10.0, 1.0));
  periodic.rebalance_period = 10.0;
  mc::ScenarioConfig one_shot = periodic.clone();
  one_shot.rebalance_period = 0.0;
  const double with_timer = mc::run_monte_carlo(periodic, mc_cfg).mean();
  const double without_timer = mc::run_monte_carlo(one_shot, mc_cfg).mean();
  EXPECT_LT(with_timer, without_timer);
}

TEST(PeriodicEngineTest, ZeroPeriodMeansNoTicks) {
  mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 40, 40,
      std::make_unique<PeriodicRebalancePolicy>(5.0, 1.0));
  const mc::RunResult run = mc::run_scenario(config, 4, 0);
  EXPECT_EQ(run.tasks_completed, 80u);
}

}  // namespace
}  // namespace lbsim::core
