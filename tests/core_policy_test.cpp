// Tests for the policy layer: excess-load arithmetic (eqs. (6)-(8)) and the
// LBP-1 / LBP-2 / baseline directive generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "core/baseline.hpp"
#include "core/excess.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "core/periodic.hpp"
#include "policy_oracle.hpp"
#include "test_support.hpp"

namespace lbsim::core {
namespace {

/// A canned SystemView for policy unit tests.
class FakeView final : public SystemView {
 public:
  FakeView(std::vector<markov::NodeParams> nodes, std::vector<std::size_t> queues,
           double d = 0.02)
      : nodes_(std::move(nodes)), queues_(std::move(queues)), d_(d),
        up_(nodes_.size(), true) {}

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
  [[nodiscard]] double per_task_delay_mean() const override { return d_; }
  /// Assigned on first use, so invalid parameters throw from the decision.
  [[nodiscard]] const RateTable& rates() const override {
    if (rates_.weight.empty()) rates_.assign(nodes_);
    return rates_;
  }

  void set_down(int n) { up_.at(static_cast<std::size_t>(n)) = false; }

 private:
  std::vector<markov::NodeParams> nodes_;
  std::vector<std::size_t> queues_;
  double d_;
  std::vector<bool> up_;
  mutable RateTable rates_;
};

std::vector<markov::NodeParams> paper_nodes() {
  return {markov::NodeParams{1.08, 0.05, 0.1}, markov::NodeParams{1.86, 0.05, 0.05}};
}

/// Never-failing nodes with the given service rates.
FakeView rated_view(const std::vector<double>& rates, std::vector<std::size_t> queues) {
  std::vector<markov::NodeParams> nodes;
  for (const double rate : rates) nodes.push_back(markov::NodeParams{rate, 0.0, 0.0});
  return FakeView(std::move(nodes), std::move(queues));
}

// ---------- excess-load arithmetic ----------

TEST(ExcessTest, FairShareProportionalToSpeed) {
  // (100, 200) with rates (1.08, 1.86): fair shares 110.2 / 189.8, so node 1
  // holds ~10.2 excess and node 0 none (worked example from Section 4 data).
  const std::vector<double> rates{1.08, 1.86};
  const std::vector<std::size_t> loads{100, 200};
  EXPECT_DOUBLE_EQ(excess_load(rates, loads, 0), 0.0);
  EXPECT_NEAR(excess_load(rates, loads, 1), 200.0 - (1.86 / 2.94) * 300.0, 1e-9);
}

TEST(ExcessTest, BalancedSystemHasNoExcess) {
  const std::vector<double> rates{1.0, 1.0};
  const std::vector<std::size_t> loads{50, 50};
  EXPECT_DOUBLE_EQ(excess_load(rates, loads, 0), 0.0);
  EXPECT_DOUBLE_EQ(excess_load(rates, loads, 1), 0.0);
}

TEST(ExcessTest, TwoNodePartitionIsEverything) {
  const std::vector<double> rates{1.08, 1.86};
  const std::vector<std::size_t> loads{100, 200};
  EXPECT_DOUBLE_EQ(partition_fraction(rates, loads, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(partition_fraction(rates, loads, 1, 1), 0.0);  // p_jj = 0
}

TEST(ExcessTest, PartitionFractionsSumToOne) {
  const std::vector<double> rates{1.0, 2.0, 4.0, 0.5};
  const std::vector<std::size_t> loads{40, 10, 5, 20};
  for (std::size_t j = 0; j < 4; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < 4; ++i) sum += partition_fraction(rates, loads, i, j);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "j=" << j;
  }
}

TEST(ExcessTest, SmallerNormalisedLoadGetsBiggerFraction) {
  const std::vector<double> rates{1.0, 1.0, 1.0};
  const std::vector<std::size_t> loads{90, 10, 30};  // node 0 is overloaded
  const double to_light = partition_fraction(rates, loads, 1, 0);
  const double to_heavy = partition_fraction(rates, loads, 2, 0);
  EXPECT_GT(to_light, to_heavy);
}

TEST(ExcessTest, PaperLfConstants) {
  // With the Section 4 parameters: node 0 fails -> 3 tasks to node 1; node 1
  // fails -> 9 tasks to node 0 (worked out from eq. (8)).
  const auto nodes = paper_nodes();
  EXPECT_EQ(lbp2_failure_transfer(nodes, 1, 0), 3u);
  EXPECT_EQ(lbp2_failure_transfer(nodes, 0, 1), 9u);
}

TEST(ExcessTest, LfRequiresRecoveryLaw) {
  auto nodes = paper_nodes();
  nodes[1].lambda_f = 0.0;
  nodes[1].lambda_r = 0.0;
  EXPECT_THROW((void)lbp2_failure_transfer(nodes, 0, 1), std::invalid_argument);
}

TEST(ExcessTest, InitialBalanceTransfersMatchHandComputation) {
  // (100, 200), rates (1.08, 1.86), K = 0.8: node 1 sends round(0.8 * 10.2) = 8.
  BalanceScratch scratch;
  const auto transfers = excess_balance(rated_view({1.08, 1.86}, {100, 200}), 0.8, scratch);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0], (TransferDirective{1, 0, 8}));
}

TEST(ExcessTest, InitialBalanceZeroGainMovesNothing) {
  BalanceScratch scratch;
  EXPECT_TRUE(excess_balance(rated_view({1.08, 1.86}, {100, 200}), 0.0, scratch).empty());
}

TEST(ExcessTest, InitialBalanceThreeNodes) {
  BalanceScratch scratch;
  const auto transfers = excess_balance(rated_view({1.0, 1.0, 1.0}, {90, 0, 0}), 1.0, scratch);
  ASSERT_EQ(transfers.size(), 2u);
  std::size_t total = 0;
  for (const auto& t : transfers) {
    EXPECT_EQ(t.from, 0);
    total += t.count;
  }
  EXPECT_EQ(total, 60u);  // excess = 90 - 30 = 60, split 30/30
}

TEST(ExcessTest, DecisionHelpersRejectInvalidInputs) {
  BalanceScratch scratch;
  EXPECT_THROW((void)excess_balance(rated_view({1.0, 0.0}, {5, 5}), 1.0, scratch),
               std::invalid_argument);
  EXPECT_THROW((void)excess_balance(rated_view({1.0, 1.0}, {5, 5}), 1.5, scratch),
               std::invalid_argument);
  EXPECT_THROW((void)failure_compensation(rated_view({1.0, 1.0}, {5, 5}), 2),
               std::invalid_argument);
}

// ---------- LBP-1 ----------

TEST(Lbp1Test, TwoNodeDirective) {
  Lbp1Policy policy(0, 0.35);
  FakeView view(paper_nodes(), {100, 60});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 0);
  EXPECT_EQ(directives[0].to, 1);
  EXPECT_EQ(directives[0].count, 35u);
}

TEST(Lbp1Test, ZeroGainNoDirective) {
  Lbp1Policy policy(1, 0.0);
  FakeView view(paper_nodes(), {100, 60});
  EXPECT_TRUE(policy.on_start(view).empty());
}

TEST(Lbp1Test, NoActionOnFailureOrRecovery) {
  Lbp1Policy policy(0, 0.35);
  FakeView view(paper_nodes(), {100, 60});
  EXPECT_TRUE(policy.on_failure(0, view).empty());
  EXPECT_TRUE(policy.on_recovery(1, view).empty());
}

TEST(Lbp1Test, MultiNodeFormUsesExcessPartition) {
  Lbp1Policy policy(1.0);
  FakeView view({markov::NodeParams{1.0, 0.0, 0.0}, markov::NodeParams{1.0, 0.0, 0.0},
                 markov::NodeParams{1.0, 0.0, 0.0}},
                {90, 0, 0});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 2u);
  EXPECT_EQ(directives[0].from, 0);
}

TEST(Lbp1Test, ExplicitSenderRequiresTwoNodes) {
  Lbp1Policy policy(0, 0.5);
  FakeView view({markov::NodeParams{1.0, 0.0, 0.0}, markov::NodeParams{1.0, 0.0, 0.0},
                 markov::NodeParams{1.0, 0.0, 0.0}},
                {10, 10, 10});
  EXPECT_THROW((void)policy.on_start(view), std::invalid_argument);
}

TEST(Lbp1Test, ValidatesConstructionAndClones) {
  EXPECT_THROW(Lbp1Policy(2, 0.5), std::invalid_argument);
  EXPECT_THROW(Lbp1Policy(0, 1.5), std::invalid_argument);
  Lbp1Policy policy(1, 0.25);
  const PolicyPtr copy = policy.clone();
  EXPECT_EQ(copy->name(), policy.name());
}

// ---------- LBP-2 ----------

TEST(Lbp2Test, InitialBalanceDirective) {
  Lbp2Policy policy(0.8);
  FakeView view(paper_nodes(), {100, 200});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 1);
  EXPECT_EQ(directives[0].to, 0);
  EXPECT_EQ(directives[0].count, 8u);
}

TEST(Lbp2Test, FailureTransferUsesLfConstants) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 50});
  view.set_down(1);
  const auto directives = policy.on_failure(1, view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 1);
  EXPECT_EQ(directives[0].to, 0);
  EXPECT_EQ(directives[0].count, 9u);
}

TEST(Lbp2Test, FailureTransferCappedByQueue) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 4});  // node 1 only holds 4 tasks
  const auto directives = policy.on_failure(1, view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].count, 4u);
}

TEST(Lbp2Test, FailureOfEmptyNodeSendsNothing) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 0});
  EXPECT_TRUE(policy.on_failure(1, view).empty());
}

TEST(Lbp2Test, NoActionOnRecovery) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 50});
  EXPECT_TRUE(policy.on_recovery(0, view).empty());
}

TEST(Lbp2Test, ThreeNodeFailureSplitsAcrossPeers) {
  std::vector<markov::NodeParams> nodes{
      markov::NodeParams{1.0, 0.05, 0.1},
      markov::NodeParams{1.0, 0.05, 0.1},
      markov::NodeParams{2.0, 0.05, 0.1},
  };
  Lbp2Policy policy(1.0);
  FakeView view(nodes, {30, 30, 30});
  const auto directives = policy.on_failure(0, view);
  ASSERT_EQ(directives.size(), 2u);
  std::map<int, std::size_t> by_to;
  for (const auto& d : directives) by_to[d.to] = d.count;
  // Faster peer (node 2) receives more (eq. (8) scales with lambda_di).
  EXPECT_GT(by_to[2], by_to[1]);
}

TEST(Lbp2Test, NameCarriesGain) {
  EXPECT_NE(Lbp2Policy(0.8).name().find("0.8"), std::string::npos);
}

// ---------- equivalence with the per-pair loops (tests/policy_oracle.hpp) ----------

constexpr std::size_t kSizes[] = {2, 3, 5, 64, 256};
constexpr double kGains[] = {0.0, 0.35, 1.0};

TEST(PolicyEquivalenceTest, StartDirectivesMatchThePerPairLoop) {
  stoch::RngStream rng(test::kFixedSeed);
  std::size_t moved = 0;
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < (n >= 64 ? 2 : 8); ++trial) {
      const FakeView view = oracle::make_view<FakeView>(oracle::random_system(rng, n));
      for (const double gain : kGains) {
        const auto expected = oracle::balance(view, gain);
        EXPECT_EQ(Lbp2Policy(gain).on_start(view), expected) << "n=" << n << " K=" << gain;
        EXPECT_EQ(Lbp1Policy(gain).on_start(view), expected) << "n=" << n << " K=" << gain;
        for (const auto& d : expected) moved += d.count;
      }
      EXPECT_EQ(ProportionalOncePolicy().on_start(view), oracle::balance(view, 1.0))
          << "n=" << n;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(PolicyEquivalenceTest, StartDirectivesMatchAtRoundingBoundaries) {
  stoch::RngStream rng(test::kFixedSeed, 3);
  std::size_t probes = 0;
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < (n >= 64 ? 2 : 12); ++trial) {
      const oracle::RandomSystem system = oracle::random_system(rng, n);
      const FakeView view = oracle::make_view<FakeView>(system);
      std::vector<double> rates;
      for (const auto& node : system.nodes) rates.push_back(node.lambda_d);
      for (int probe = 0; probe < 8; ++probe) {
        const std::size_t j = rng.uniform_index(n);
        const std::size_t i = (j + 1 + rng.uniform_index(n - 1)) % n;
        const double gain = oracle::boundary_gain(rates, system.queues, i, j);
        if (gain == 0.0) continue;
        EXPECT_EQ(Lbp2Policy(gain).on_start(view), oracle::balance(view, gain))
            << "n=" << n << " pair " << j << "->" << i << " K=" << gain;
        ++probes;
      }
    }
  }
  EXPECT_GT(probes, 50u);
}

TEST(PolicyEquivalenceTest, AllReceiversEmptySplitsTheExcessEvenly) {
  // Only node k holds work: sum_{l != k} m_l / lambda_dl = 0, so p_ik = 1/(n-1).
  stoch::RngStream rng(test::kFixedSeed, 1);
  for (const std::size_t n : kSizes) {
    oracle::RandomSystem system = oracle::random_system(rng, n);
    const std::size_t k = n / 2;
    std::fill(system.queues.begin(), system.queues.end(), 0);
    system.queues[k] = 40 * n + 7;
    const FakeView view = oracle::make_view<FakeView>(system);
    for (const double gain : kGains) {
      const auto directives = Lbp2Policy(gain).on_start(view);
      EXPECT_EQ(directives, oracle::balance(view, gain)) << "n=" << n << " K=" << gain;
      for (const auto& d : directives) EXPECT_EQ(d.from, static_cast<int>(k));
    }
  }
  // Equal rates: the excess 90 - 18 = 72 splits 18 to each of the four peers.
  const auto even = Lbp2Policy(1.0).on_start(rated_view({1, 1, 1, 1, 1}, {0, 0, 90, 0, 0}));
  ASSERT_EQ(even.size(), 4u);
  for (const auto& d : even) EXPECT_EQ(d.count, 18u);
}

TEST(PolicyEquivalenceTest, FailureDirectivesMatchThePerPairLoop) {
  stoch::RngStream rng(test::kFixedSeed, 2);
  std::size_t moved = 0;
  std::size_t capped = 0;       // the failed node's queue ran out mid-split
  std::size_t empty_queue = 0;  // the failed node held nothing
  std::size_t withheld = 0;     // state-aware mode skipped a down peer
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 6; ++trial) {
      const oracle::RandomSystem system = oracle::random_system(rng, n);
      const FakeView view = oracle::make_view<FakeView>(system);
      for (std::size_t j = 0; j < n; j += std::max<std::size_t>(1, n / 16)) {
        const int node = static_cast<int>(j);
        const auto blind = oracle::failure(node, view, false);
        const auto aware = oracle::failure(node, view, true);
        EXPECT_EQ(Lbp2Policy(1.0).on_failure(node, view), blind) << "n=" << n << " j=" << j;
        EXPECT_EQ(Lbp2Policy(1.0, true).on_failure(node, view), aware)
            << "n=" << n << " j=" << j;
        for (const auto& d : blind) moved += d.count;
        if (!blind.empty() && blind.back().count < lbp2_failure_transfer(system.nodes,
                                                                         blind.back().to, j)) {
          ++capped;
        }
        if (system.queues[j] == 0) ++empty_queue;
        if (aware != blind) ++withheld;
      }
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(capped, 0u);
  EXPECT_GT(empty_queue, 0u);
  EXPECT_GT(withheld, 0u);
}

TEST(PolicyEquivalenceTest, FailureDirectivesMatchAtRoundingBoundaries) {
  stoch::RngStream rng(test::kFixedSeed, 4);
  std::size_t probes = 0;
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 12; ++trial) {
      oracle::RandomSystem system = oracle::random_system(rng, n);
      const std::size_t j = rng.uniform_index(n);
      const std::size_t i = (j + 1 + rng.uniform_index(n - 1)) % n;
      system.nodes[j].lambda_r =
          oracle::boundary_recovery_rate(system.nodes, i, j, 1 + rng.uniform_index(3));
      system.queues[j] = 100000;  // no cap: every receiver's LF is shipped in full
      const FakeView view = oracle::make_view<FakeView>(system);
      const int node = static_cast<int>(j);
      EXPECT_EQ(Lbp2Policy(1.0).on_failure(node, view), oracle::failure(node, view))
          << "n=" << n << " pair " << j << "->" << i;
      EXPECT_EQ(Lbp2Policy(1.0, true).on_failure(node, view),
                oracle::failure(node, view, true))
          << "n=" << n << " pair " << j << "->" << i;
      ++probes;
    }
  }
  EXPECT_EQ(probes, 60u);
}

TEST(PolicyEquivalenceTest, LfUndefinedThrowsWhereThePerPairLoopThrew) {
  // Node 1 never fails, so it has no recovery law and LF_i1 is undefined. The
  // per-pair loop prices a receiver (and throws) only when node 1's queue is
  // non-empty and some peer is eligible.
  const auto outcome = [](const std::function<std::vector<TransferDirective>()>& decide) {
    try {
      return decide().empty() ? std::string("empty") : std::string("moved");
    } catch (const std::invalid_argument&) {
      return std::string("throws");
    }
  };
  struct Case {
    std::size_t queue;
    bool aware;
    std::vector<int> down;
    const char* expected;
  };
  const Case cases[] = {
      {10, false, {}, "throws"},   {0, false, {}, "empty"},
      {10, true, {0, 2}, "empty"}, {10, true, {2}, "throws"},
      {0, true, {}, "empty"},      {10, false, {0, 2}, "throws"},
  };
  for (const Case& c : cases) {
    FakeView view({markov::NodeParams{1.0, 0.05, 0.1}, markov::NodeParams{1.5, 0.0, 0.0},
                   markov::NodeParams{2.0, 0.05, 0.1}},
                  {5, c.queue, 5});
    for (const int peer : c.down) view.set_down(peer);
    const std::string parent = outcome([&] { return oracle::failure(1, view, c.aware); });
    const std::string now =
        outcome([&] { return Lbp2Policy(1.0, c.aware).on_failure(1, view); });
    EXPECT_EQ(parent, c.expected) << "queue=" << c.queue << " aware=" << c.aware;
    EXPECT_EQ(now, parent) << "queue=" << c.queue << " aware=" << c.aware;
  }
}

// ---------- the exact exits of excess_balance and failure_compensation ----------

/// many-node-churn's default system at n nodes: service rates cycled from
/// (1.08, 1.86, 1.5, 1.2), lambda_f = 0.05, lambda_r = 0.25 and workloads
/// cycled from (120, 20, 60, 40). From n = 256 on, every eq. (7) and eq. (8)
/// share rounds to zero.
oracle::RandomSystem many_node_churn(std::size_t n) {
  const double rates[] = {1.08, 1.86, 1.5, 1.2};
  const std::size_t loads[] = {120, 20, 60, 40};
  oracle::RandomSystem system;
  for (std::size_t i = 0; i < n; ++i) {
    system.nodes.push_back(markov::NodeParams{rates[i % 4], 0.05, 0.25});
    system.queues.push_back(loads[i % 4]);
    system.up.push_back(true);
  }
  return system;
}

/// Whether failure_compensation prices no receiver of node j's failure:
/// fl(w_max * lambda_dj / lambda_rj) < 1.
bool failure_exits(const SystemView& view, std::size_t j) {
  const markov::NodeParams& failed = view.params()[j];
  return view.rates().max_weight * (failed.lambda_d / failed.lambda_r) < 1.0;
}

/// Whether excess_balance prices no receiver of sender j:
/// fl(fl(K * fl(1/(n-2))) * excess_j) < 0.5, with 1 in place of 1/(n-2) at n = 2.
bool start_exits(const std::vector<double>& rates, const std::vector<std::size_t>& loads,
                 double gain, std::size_t j) {
  const std::size_t n = rates.size();
  const double top = n == 2 ? 1.0 : 1.0 / static_cast<double>(n - 2);
  return gain * top * excess_load(rates, loads, j) < 0.5;
}

TEST(PolicyEquivalenceTest, DecisionsMatchThePerPairLoopOnBothSidesOfTheExits) {
  // The slow-recovery random systems mostly price their receivers;
  // many-node-churn's defaults at n = 256 and 1,024 round every share to
  // zero, so every decision there takes an exit.
  stoch::RngStream rng(test::kFixedSeed, 5);
  struct Case {
    oracle::RandomSystem system;
    bool churn_defaults;
  };
  const Case cases[] = {{oracle::random_system(rng, 64), false},
                        {oracle::random_system(rng, 256), false},
                        {many_node_churn(256), true},
                        {many_node_churn(1024), true}};
  std::size_t start_exit = 0;
  std::size_t start_walk = 0;
  std::size_t failure_exit = 0;
  std::size_t failure_walk = 0;
  for (const auto& [system, churn_defaults] : cases) {
    const std::size_t n = system.nodes.size();
    const FakeView view = oracle::make_view<FakeView>(system);
    std::vector<double> rates;
    for (const auto& node : system.nodes) rates.push_back(node.lambda_d);
    for (const double gain : {0.35, 1.0}) {
      if (n > 256 && gain != 1.0) continue;  // the per-pair loop is O(n^3)
      const auto expected = oracle::balance(view, gain);
      EXPECT_EQ(Lbp2Policy(gain).on_start(view), expected) << "n=" << n << " K=" << gain;
      if (churn_defaults) {
        EXPECT_TRUE(expected.empty()) << "n=" << n << " K=" << gain;
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (excess_load(rates, system.queues, j) <= 0.0) continue;
        ++(start_exits(rates, system.queues, gain, j) ? start_exit : start_walk);
      }
    }
    for (std::size_t j = 0; j < n; j += std::max<std::size_t>(1, n / 16)) {
      const int node = static_cast<int>(j);
      const auto blind = oracle::failure(node, view, false);
      EXPECT_EQ(Lbp2Policy(1.0).on_failure(node, view), blind) << "n=" << n << " j=" << j;
      EXPECT_EQ(Lbp2Policy(1.0, true).on_failure(node, view), oracle::failure(node, view, true))
          << "n=" << n << " j=" << j;
      if (churn_defaults) {
        EXPECT_TRUE(blind.empty()) << "n=" << n << " j=" << j;
      }
      if (system.queues[j] > 0) ++(failure_exits(view, j) ? failure_exit : failure_walk);
    }
  }
  EXPECT_GT(start_exit, 0u);
  EXPECT_GT(start_walk, 0u);
  EXPECT_GT(failure_exit, 0u);
  EXPECT_GT(failure_walk, 0u);
}

TEST(PolicyEquivalenceTest, FailureExitHoldsAtItsRoundingBoundary) {
  // Tune lambda_rj so that the receiver with the largest weight sits exactly
  // on LF = 1: there fl(w_max * B_j) == 1 and the exit must not fire; one ULP
  // faster recovery puts it below 1, the exit fires, and nobody is priced.
  stoch::RngStream rng(test::kFixedSeed, 6);
  std::size_t on_one = 0;
  std::size_t below = 0;
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 12; ++trial) {
      oracle::RandomSystem system = oracle::random_system(rng, n);
      const FakeView original = oracle::make_view<FakeView>(system);
      const std::vector<double>& weight = original.rates().weight;
      const auto heaviest = static_cast<std::size_t>(
          std::max_element(weight.begin(), weight.end()) - weight.begin());
      const std::size_t j = (heaviest + 1 + rng.uniform_index(n - 1)) % n;
      const double rate = oracle::boundary_recovery_rate(system.nodes, heaviest, j, 1);
      system.queues[j] = 100000;  // no cap
      for (const double lambda_r : {rate, std::nextafter(rate, 1e300)}) {
        system.nodes[j].lambda_r = lambda_r;
        const FakeView view = oracle::make_view<FakeView>(system);
        const RateTable& rates = view.rates();
        const double bound = rates.max_weight * (system.nodes[j].lambda_d / lambda_r);
        const int node = static_cast<int>(j);
        EXPECT_EQ(Lbp2Policy(1.0).on_failure(node, view), oracle::failure(node, view))
            << "n=" << n << " j=" << j << " lambda_r=" << lambda_r;
        EXPECT_EQ(Lbp2Policy(1.0, true).on_failure(node, view),
                  oracle::failure(node, view, true))
            << "n=" << n << " j=" << j << " lambda_r=" << lambda_r;
        if (rates.weight[heaviest] != rates.max_weight) continue;
        if (bound == 1.0) ++on_one;
        if (bound < 1.0) ++below;
      }
    }
  }
  EXPECT_GT(on_one, 20u);
  EXPECT_GT(below, 20u);
}

TEST(PolicyEquivalenceTest, StartExitHoldsAtItsRoundingBoundary) {
  // Sender j holds just enough excess that K * fl(1/(n-2)) * excess_j can
  // reach half a task; an empty receiver i gets p_ij = fl(1/(n-2)) exactly,
  // so tuning K to its first task puts the exit's bound exactly on 0.5.
  stoch::RngStream rng(test::kFixedSeed, 7);
  std::size_t on_half = 0;
  for (const std::size_t n : {3, 5, 64, 256}) {
    const double top = 1.0 / static_cast<double>(n - 2);
    for (int trial = 0; trial < 12; ++trial) {
      oracle::RandomSystem system = oracle::random_system(rng, n);
      std::vector<double> rates;
      for (const auto& node : system.nodes) rates.push_back(node.lambda_d);
      const std::size_t j = rng.uniform_index(n);
      const std::size_t k = (j + 1) % n;  // the one other loaded node
      const std::size_t i = (j + 2) % n;  // an empty receiver
      std::fill(system.queues.begin(), system.queues.end(), 0);
      system.queues[k] = 1 + rng.uniform_index(4);
      while (top * excess_load(rates, system.queues, j) < 0.5) ++system.queues[j];
      ASSERT_EQ(partition_fraction(rates, system.queues, i, j), top) << "n=" << n;
      const double gain = oracle::boundary_gain(rates, system.queues, i, j);
      ASSERT_GT(gain, 0.0) << "n=" << n;
      for (const double k_gain : {gain, std::nextafter(gain, 0.0)}) {
        const FakeView view = oracle::make_view<FakeView>(system);
        EXPECT_EQ(Lbp2Policy(k_gain).on_start(view), oracle::balance(view, k_gain))
            << "n=" << n << " sender " << j << " K=" << k_gain;
      }
      if (gain * top * excess_load(rates, system.queues, j) == 0.5) ++on_half;
    }
  }
  EXPECT_GT(on_half, 20u);
}

/// A view over a FakeView that counts the per-node reads a decision makes, so
/// a test can pin a decision's cost without a clock.
class CountingView final : public SystemView {
 public:
  explicit CountingView(const FakeView& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t node_count() const override { return inner_.node_count(); }
  [[nodiscard]] std::size_t queue_length(int n) const override {
    ++queue_reads;
    return inner_.queue_length(n);
  }
  [[nodiscard]] bool is_up(int n) const override {
    ++up_reads;
    return inner_.is_up(n);
  }
  [[nodiscard]] std::span<const markov::NodeParams> params() const override {
    return inner_.params();
  }
  [[nodiscard]] double per_task_delay_mean() const override {
    return inner_.per_task_delay_mean();
  }
  [[nodiscard]] const RateTable& rates() const override { return inner_.rates(); }

  void reset() { queue_reads = up_reads = 0; }

  mutable std::size_t queue_reads = 0;
  mutable std::size_t up_reads = 0;

 private:
  const FakeView& inner_;
};

TEST(PolicyCostTest, DecisionsThatRoundEveryShareToZeroReadNoReceiver) {
  constexpr std::size_t n = 1024;
  oracle::RandomSystem system = many_node_churn(n);
  const FakeView fake = oracle::make_view<FakeView>(system);
  CountingView view(fake);
  // A failure whose eq. (8) shares all round to zero reads the failed node's
  // queue, plus the first up peer in the state-aware mode.
  EXPECT_TRUE(Lbp2Policy(1.0).on_failure(0, view).empty());
  EXPECT_EQ(view.queue_reads, 1u);
  EXPECT_EQ(view.up_reads, 0u);
  view.reset();
  EXPECT_TRUE(Lbp2Policy(1.0, true).on_failure(0, view).empty());
  EXPECT_EQ(view.queue_reads, 1u);
  EXPECT_EQ(view.up_reads, 1u);
  // A t = 0 split with every sender below half a task is one pass over the
  // queues; the periodic form asks no sender whether it is up.
  view.reset();
  EXPECT_TRUE(Lbp2Policy(1.0).on_start(view).empty());
  EXPECT_EQ(view.queue_reads, n);
  EXPECT_EQ(view.up_reads, 0u);
  view.reset();
  EXPECT_TRUE(PeriodicRebalancePolicy(5.0, 1.0).on_periodic(view).empty());
  EXPECT_EQ(view.queue_reads, n);
  EXPECT_EQ(view.up_reads, 0u);

  // The counts see O(n) work where it remains: when node 0 recovers slowly
  // and holds enough work, the state-aware failure decision asks every peer,
  // and a sender that can reach a task is asked whether it is up.
  system.nodes[0].lambda_r = 1e-4;
  system.queues[0] = 100000;
  const FakeView slow = oracle::make_view<FakeView>(system);
  CountingView walked(slow);
  EXPECT_FALSE(Lbp2Policy(1.0, true).on_failure(0, walked).empty());
  EXPECT_GE(walked.up_reads, n - 1);
  walked.reset();
  EXPECT_FALSE(PeriodicRebalancePolicy(5.0, 1.0).on_periodic(walked).empty());
  EXPECT_EQ(walked.queue_reads, n);
  EXPECT_EQ(walked.up_reads, 1u);
}

// ---------- baselines ----------

TEST(BaselineTest, NoBalancingDoesNothingEver) {
  NoBalancingPolicy policy;
  FakeView view(paper_nodes(), {100, 0});
  EXPECT_TRUE(policy.on_start(view).empty());
  EXPECT_TRUE(policy.on_failure(0, view).empty());
}

TEST(BaselineTest, ProportionalOnceFullyBalances) {
  ProportionalOncePolicy policy;
  FakeView view(paper_nodes(), {100, 200});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 1u);
  // Full excess of node 1: round(10.2) = 10.
  EXPECT_EQ(directives[0].count, 10u);
  EXPECT_TRUE(policy.on_failure(1, view).empty());
}

}  // namespace
}  // namespace lbsim::core
