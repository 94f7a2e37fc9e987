#include "stochastic/histogram.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lbsim::stoch {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  LBSIM_REQUIRE(bins >= 1, "bins=" << bins);
  LBSIM_REQUIRE(hi > lo, "range [" << lo << ", " << hi << ")");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const double offset = (x - lo_) / width_;
  if (offset >= static_cast<double>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(offset)];
  ++in_range_;
}

void Histogram::add_all(const std::vector<double>& xs) noexcept {
  for (const double x : xs) add(x);
}

double Histogram::bin_center(std::size_t i) const {
  LBSIM_REQUIRE(i < counts_.size(), "bin " << i);
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

std::size_t Histogram::count(std::size_t i) const {
  LBSIM_REQUIRE(i < counts_.size(), "bin " << i);
  return counts_[i];
}

double Histogram::density(std::size_t i) const {
  LBSIM_REQUIRE(i < counts_.size(), "bin " << i);
  if (in_range_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) /
         (static_cast<double>(in_range_) * width_);
}

}  // namespace lbsim::stoch
