#pragma once
/// \file
/// Small numeric helpers shared by the solvers and statistics code.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace lbsim::util {

/// Full-match strtod: the entire string must parse as a finite-representable
/// double (empty input, trailing junk, and ERANGE all yield nullopt). The one
/// definition behind the config/schedule/sweep-axis text parsers, so their
/// accept/reject behavior cannot drift apart.
[[nodiscard]] std::optional<double> try_parse_double(const std::string& text) noexcept;

/// `count` evenly spaced values from `lo` to `hi` inclusive (count >= 2), or {lo} if count==1.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t count);

/// Compensated (Kahan) summation; exact enough for long Monte-Carlo accumulations.
class KahanSum {
 public:
  void add(double x) noexcept;
  [[nodiscard]] double value() const noexcept { return sum_; }

 private:
  double sum_ = 0.0;
  double carry_ = 0.0;
};

/// Trapezoidal integral of samples y on a uniform grid with spacing dx.
[[nodiscard]] double trapezoid(const std::vector<double>& y, double dx);

}  // namespace lbsim::util
