// Unit tests for src/stochastic: RNG streams and distribution samplers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "stochastic/distributions.hpp"
#include "stochastic/rng.hpp"
#include "stochastic/stats.hpp"

namespace lbsim::stoch {
namespace {

// The first two raw draws of RngStream(seed, id) for every id mod 8 (the
// long-jump count) and id 2^40 + 5. Every downstream statistic hangs on
// these bits, so stream seeding may change only on purpose.
struct StreamPin {
  std::uint64_t seed, id, first, second;
};
constexpr StreamPin kStreamPins[] = {
    {0x1, 0x0, 0xbfc0a8a76ae8391eULL, 0x01f8bcc708833c9bULL},
    {0x1, 0x1, 0x2e572a13b50e054dULL, 0x511cfbdcc2e458ceULL},
    {0x1, 0x2, 0xa0af26773de6535cULL, 0x6a9ecd4152931b17ULL},
    {0x1, 0x3, 0xd1f0811c9c4da770ULL, 0x980cfe1d5257fbc0ULL},
    {0x1, 0x4, 0xeb954375b2fd8594ULL, 0x3aa3abfc78c721fbULL},
    {0x1, 0x5, 0x0e98a5b573de2fd3ULL, 0x6b53d06f91f77025ULL},
    {0x1, 0x6, 0xc1a45da69db4c2e8ULL, 0xe9c6ca85c2121230ULL},
    {0x1, 0x7, 0xdccb2e2e96dafd32ULL, 0xc5334fef49ebfb5fULL},
    {0x1, 0x10000000005, 0x766f58f639b7cc50ULL, 0x97005aa11b065c85ULL},
    {0x5eed2006, 0x0, 0x324e3fa8468cfc45ULL, 0x3e558d4e9df6e334ULL},
    {0x5eed2006, 0x1, 0xdd1ee43603943eacULL, 0x8813a6d1a2546cf2ULL},
    {0x5eed2006, 0x2, 0x3472e83983cb8e0bULL, 0x2b9212fc7cba7686ULL},
    {0x5eed2006, 0x3, 0x4166a8c5bebf9857ULL, 0xc99d98c29a8a89d5ULL},
    {0x5eed2006, 0x4, 0xd356305a667fef6fULL, 0x0d6900e0a2764881ULL},
    {0x5eed2006, 0x5, 0x9ddb41f8af076093ULL, 0xe659755c8e03a65dULL},
    {0x5eed2006, 0x6, 0x5d0fa164eb17b184ULL, 0xedfd2878779fb41cULL},
    {0x5eed2006, 0x7, 0xefe5ccaef5e3cef6ULL, 0xd69949cd0a0eb97eULL},
    {0x5eed2006, 0x10000000005, 0x6f2299d764d5866aULL, 0xe1f476083414944eULL},
};

TEST(Xoshiro256ppTest, DeterministicForSeed) {
  Xoshiro256pp a(42);
  Xoshiro256pp b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256ppTest, DifferentSeedsDiffer) {
  Xoshiro256pp a(1);
  Xoshiro256pp b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LE(same, 1);
}

TEST(Xoshiro256ppTest, LongJumpChangesSequence) {
  Xoshiro256pp a(7);
  Xoshiro256pp b(7);
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LE(same, 1);
}

TEST(Xoshiro256ppTest, TableJumpsEqualRepeatedLongJumps) {
  // long_jumps(k) applies J^k from the precomputed tables; k calls of
  // long_jump() are the oracle. The single-bit states pin every column of
  // the linear map, the rest check the XOR composition.
  std::vector<Xoshiro256pp::State> starts;
  for (unsigned bit = 0; bit < 256; ++bit) {
    Xoshiro256pp::State basis{};
    basis[bit / 64] = std::uint64_t{1} << (bit % 64);
    starts.push_back(basis);
  }
  starts.push_back({~0ULL, ~0ULL, ~0ULL, ~0ULL});
  Xoshiro256pp source(2026);
  for (int i = 0; i < 1000; ++i) starts.push_back({source(), source(), source(), source()});
  for (const Xoshiro256pp::State& start : starts) {
    Xoshiro256pp oracle(start);
    for (unsigned k = 0; k < 8; ++k) {
      Xoshiro256pp jumped(start);
      jumped.long_jumps(k);
      ASSERT_EQ(jumped.state(), oracle.state()) << "k = " << k;
      oracle.long_jump();
    }
  }
  Xoshiro256pp engine(7);
  EXPECT_THROW(engine.long_jumps(8), std::invalid_argument);
}

TEST(RngStreamTest, StreamsAreReproducible) {
  RngStream a(123, 5);
  RngStream b(123, 5);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RngStreamTest, DistinctStreamsDecorrelated) {
  RngStream a(123, 0);
  RngStream b(123, 1);
  // Correlation of 1e4 uniform pairs should be near zero.
  const int n = 10000;
  double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform01();
    const double y = b.uniform01();
    sum_ab += x * y;
    sum_a += x;
    sum_b += y;
  }
  const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
  EXPECT_NEAR(cov, 0.0, 0.01);
}

TEST(RngStreamTest, AntitheticStreamMirrorsUniform01) {
  // The antithetic member of a replication pair sees 1 - U wherever its twin
  // saw U; raw-bit draws (next_u64 / uniform_index) are intentionally NOT
  // mirrored, so index-valued decisions stay identical across the pair.
  RngStream plain(123, 5);
  RngStream mirrored(123, 5);
  mirrored.set_antithetic(true);
  EXPECT_TRUE(mirrored.antithetic());
  for (int i = 0; i < 1000; ++i) {
    const double u = plain.uniform01();
    const double v = mirrored.uniform01();
    EXPECT_NEAR(v, 1.0 - u, 1e-15);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);  // the mirror of u = 0 is clamped below 1
  }
  RngStream plain2(99, 0);
  RngStream mirrored2(99, 0);
  mirrored2.set_antithetic(true);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(plain2.uniform_index(7), mirrored2.uniform_index(7));
  }
}

TEST(RngStreamTest, AntitheticExponentialsAreNegativelyCorrelated) {
  RngStream plain(2026, 3);
  RngStream mirrored(2026, 3);
  mirrored.set_antithetic(true);
  const int n = 10000;
  double sum_xy = 0.0, sum_x = 0.0, sum_y = 0.0, sum_x2 = 0.0, sum_y2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = plain.exponential(1.0);
    const double y = mirrored.exponential(1.0);
    sum_xy += x * y;
    sum_x += x;
    sum_y += y;
    sum_x2 += x * x;
    sum_y2 += y * y;
  }
  const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
  const double var_x = sum_x2 / n - (sum_x / n) * (sum_x / n);
  const double var_y = sum_y2 / n - (sum_y / n) * (sum_y / n);
  // Inverse-CDF sampling of a monotone transform keeps most of the negative
  // correlation (theoretical rho ~ -0.645 for exponentials).
  EXPECT_LT(cov / std::sqrt(var_x * var_y), -0.5);
}

TEST(RngStreamTest, RawOutputPinnedForEveryJumpCount) {
  for (const StreamPin& pin : kStreamPins) {
    RngStream rng(pin.seed, pin.id);
    EXPECT_EQ(rng.next_u64(), pin.first) << "seed " << pin.seed << " id " << pin.id;
    EXPECT_EQ(rng.next_u64(), pin.second) << "seed " << pin.seed << " id " << pin.id;
  }
}

TEST(RngStreamTest, ConcurrentFirstUseOfTheJumpTables) {
  // Under ctest every test case runs in its own process, so these four
  // threads race to build the jump tables on their first use (`ctest -L rng`
  // runs this under TSan in CI).
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> draws(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&start, &out = draws[static_cast<std::size_t>(t)]] {
      start.arrive_and_wait();
      for (const StreamPin& pin : kStreamPins) {
        out.push_back(RngStream(pin.seed, pin.id).next_u64());
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const std::vector<std::uint64_t>& out : draws) {
    ASSERT_EQ(out.size(), std::size(kStreamPins));
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], kStreamPins[i].first) << "id " << kStreamPins[i].id;
    }
  }
}

TEST(RngStreamTest, Uniform01InRange) {
  RngStream rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStreamTest, UniformRangeRespected) {
  RngStream rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngStreamTest, ExponentialMeanMatchesRate) {
  RngStream rng(2024);
  RunningStats stats;
  const double rate = 1.86;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 4.0 * stats.std_error());
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.01);
}

TEST(RngStreamTest, ExponentialRejectsBadRate) {
  RngStream rng(1);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(-2.0), std::invalid_argument);
}

TEST(RngStreamTest, UniformIndexBounds) {
  RngStream rng(77);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const auto k = rng.uniform_index(7);
    ASSERT_LT(k, 7u);
    counts[static_cast<std::size_t>(k)]++;
  }
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
  EXPECT_THROW((void)rng.uniform_index(0), std::invalid_argument);
}

// ---------- distributions ----------

TEST(DistributionTest, ExponentialMoments) {
  const Exponential d(0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.variance(), 4.0);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(DistributionTest, ShiftedExponentialMoments) {
  const ShiftedExponential d(0.5, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 1.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.25);
  RngStream rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(d.sample(rng), 0.5);
}

TEST(DistributionTest, ErlangMoments) {
  const Erlang d(4, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.variance(), 1.0);
  EXPECT_THROW(Erlang(0, 1.0), std::invalid_argument);
}

TEST(DistributionTest, ErlangSampleMeanAndVariance) {
  const Erlang d(5, 2.5);
  RngStream rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(d.sample(rng));
  EXPECT_NEAR(stats.mean(), d.mean(), 4.0 * stats.std_error());
  EXPECT_NEAR(stats.variance(), d.variance(), 0.05);
}

TEST(DistributionTest, DeterministicIsConstant) {
  const Deterministic d(3.5);
  RngStream rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 3.5);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(DistributionTest, UniformRealMoments) {
  const UniformReal d(1.0, 3.0);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_NEAR(d.variance(), 4.0 / 12.0, 1e-12);
}

TEST(DistributionTest, WeibullShapeOneIsExponential) {
  // Weibull(k=1, scale) == Exponential(1/scale).
  const Weibull w(1.0, 2.0);
  EXPECT_NEAR(w.mean(), 2.0, 1e-12);
  EXPECT_NEAR(w.variance(), 4.0, 1e-9);
}

TEST(DistributionTest, WeibullSampleMean) {
  const Weibull w(2.0, 1.0);
  RngStream rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(w.sample(rng));
  EXPECT_NEAR(stats.mean(), w.mean(), 4.0 * stats.std_error());
}

TEST(DistributionTest, CloneIsIndependentButIdenticalLaw) {
  const Exponential d(1.08);
  const DistributionPtr c = d.clone();
  EXPECT_EQ(c->describe(), d.describe());
  RngStream r1(42), r2(42);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(d.sample(r1), c->sample(r2));
}

TEST(DistributionTest, DescribeMentionsParameters) {
  EXPECT_NE(Exponential(1.08).describe().find("1.08"), std::string::npos);
  EXPECT_NE(Erlang(3, 2.0).describe().find("3"), std::string::npos);
}

}  // namespace
}  // namespace lbsim::stoch
