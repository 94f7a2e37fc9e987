// Unit tests for the application substrate: calibrated workload generation
// (the Fig. 1 model).

#include <gtest/gtest.h>

#include "app/workload.hpp"
#include "stochastic/fit.hpp"
#include "stochastic/stats.hpp"

namespace lbsim::app {
namespace {

TEST(WorkloadTest, GeneratesRequestedCountWithUniqueIds) {
  WorkloadGenerator gen;
  stoch::RngStream rng(21);
  const auto b1 = gen.generate(10, 0, rng);
  const auto b2 = gen.generate(5, 1, rng);
  EXPECT_EQ(b1.size(), 10u);
  EXPECT_EQ(b2.size(), 5u);
  EXPECT_EQ(b2[0].id, 11u);  // ids continue across calls
  EXPECT_EQ(b2[0].origin, 1);
  EXPECT_EQ(gen.tasks_generated(), 15u);
}

TEST(WorkloadTest, DefaultSizesAreExpOne) {
  WorkloadGenerator gen;
  stoch::RngStream rng(22);
  const auto batch = gen.generate(50000, 0, rng);
  std::vector<double> sizes;
  for (const auto& t : batch) sizes.push_back(t.size);
  const auto fit = stoch::fit_exponential(sizes);
  EXPECT_NEAR(fit.rate, 1.0, 0.02);
}

TEST(WorkloadTest, CalibratedServiceTimesAreExponentialAtTargetRate) {
  // The Fig. 1 claim: random task sizes / fixed speed => Exp(lambda_d) service.
  WorkloadGenerator gen;
  stoch::RngStream rng(23);
  const auto batch = gen.generate(50000, 0, rng);
  const auto svc = calibrated_service(1.86);
  std::vector<double> times;
  stoch::RngStream unused(0);
  for (const auto& t : batch) times.push_back(svc(t, unused));
  const auto fit = stoch::fit_exponential(times);
  EXPECT_NEAR(fit.rate, 1.86, 0.05);
}

TEST(WorkloadTest, ExponentialServiceIgnoresTaskSize) {
  const auto svc = exponential_service(1.08);
  stoch::RngStream rng(24);
  node::Task small{1, 0.001, 0};
  node::Task big{2, 1000.0, 0};
  stoch::RunningStats s_small, s_big;
  for (int i = 0; i < 20000; ++i) {
    s_small.add(svc(small, rng));
    s_big.add(svc(big, rng));
  }
  EXPECT_NEAR(s_small.mean(), 1.0 / 1.08, 0.03);
  EXPECT_NEAR(s_big.mean(), 1.0 / 1.08, 0.03);
}

TEST(WorkloadTest, SizeBasedServiceTime) {
  const node::Task task{1, 3.0, 0};
  EXPECT_DOUBLE_EQ(size_based_service_time(task, 1.5), 2.0);
  EXPECT_THROW((void)size_based_service_time(task, 0.0), std::invalid_argument);
}

TEST(WorkloadTest, CustomSizeLaw) {
  WorkloadGenerator gen(std::make_unique<stoch::Deterministic>(2.0));
  stoch::RngStream rng(25);
  const auto batch = gen.generate(10, 0, rng);
  for (const auto& t : batch) EXPECT_DOUBLE_EQ(t.size, 2.0);
}

}  // namespace
}  // namespace lbsim::app
