#include "stochastic/distributions.hpp"

#include <sstream>

#include "util/error.hpp"

namespace lbsim::stoch {

Exponential::Exponential(double rate) : rate_(rate) {
  LBSIM_REQUIRE(rate > 0.0, "Exponential rate=" << rate);
}

double Exponential::sample(RngStream& rng) const { return rng.exponential(rate_); }

std::string Exponential::describe() const {
  std::ostringstream os;
  os << "Exponential(rate=" << rate_ << ")";
  return os.str();
}

DistributionPtr Exponential::clone() const { return std::make_unique<Exponential>(*this); }

Deterministic::Deterministic(double value) : value_(value) {
  LBSIM_REQUIRE(value >= 0.0, "Deterministic value=" << value);
}

double Deterministic::sample(RngStream& /*rng*/) const { return value_; }

std::string Deterministic::describe() const {
  std::ostringstream os;
  os << "Deterministic(" << value_ << ")";
  return os.str();
}

DistributionPtr Deterministic::clone() const { return std::make_unique<Deterministic>(*this); }

}  // namespace lbsim::stoch
