#pragma once
/// \file
/// Positive-valued distributions behind a small polymorphic interface: the
/// paper's exponential law (node churn, task sizes) and a deterministic law
/// that tests substitute for it.

#include <memory>
#include <string>

#include "stochastic/rng.hpp"

namespace lbsim::stoch {

/// A nonnegative random variable: sample it, and query its first two moments.
/// Implementations are immutable after construction (safe to share across threads
/// as long as each thread passes its own RngStream).
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draws one variate using the caller's stream.
  [[nodiscard]] virtual double sample(RngStream& rng) const = 0;

  [[nodiscard]] virtual double mean() const = 0;
  [[nodiscard]] virtual double variance() const = 0;

  /// Human-readable description, e.g. "Exponential(rate=1.08)".
  [[nodiscard]] virtual std::string describe() const = 0;

  [[nodiscard]] virtual std::unique_ptr<Distribution> clone() const = 0;
};

using DistributionPtr = std::unique_ptr<Distribution>;

/// Exponential(rate); mean 1/rate. The paper's model for service, failure,
/// recovery, and bundle-transfer times.
class Exponential final : public Distribution {
 public:
  explicit Exponential(double rate);
  [[nodiscard]] double sample(RngStream& rng) const override;
  [[nodiscard]] double mean() const override { return 1.0 / rate_; }
  [[nodiscard]] double variance() const override { return 1.0 / (rate_ * rate_); }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] DistributionPtr clone() const override;
  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  double rate_;
};

/// Always returns `value` (>= 0): a law without randomness, for tests.
class Deterministic final : public Distribution {
 public:
  explicit Deterministic(double value);
  [[nodiscard]] double sample(RngStream& rng) const override;
  [[nodiscard]] double mean() const override { return value_; }
  [[nodiscard]] double variance() const override { return 0.0; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double value_;
};

}  // namespace lbsim::stoch
