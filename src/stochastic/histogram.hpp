#pragma once
/// \file
/// Fixed-bin histogram with probability-density normalisation, used to reproduce
/// the empirical pdfs of Figs. 1 and 2.

#include <cstddef>
#include <string>
#include <vector>

namespace lbsim::stoch {

class Histogram {
 public:
  /// Bins [lo, hi) split into `bins` equal cells; samples outside are counted
  /// in underflow/overflow and excluded from the density.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void add_all(const std::vector<double>& xs) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double bin_width() const noexcept { return width_; }
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] std::size_t count(std::size_t i) const;
  [[nodiscard]] std::size_t total_in_range() const noexcept { return in_range_; }
  [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }

  /// Density estimate at bin i: count / (total_in_range * bin_width); 0 if empty.
  [[nodiscard]] double density(std::size_t i) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t in_range_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace lbsim::stoch
