#include "util/math.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace lbsim::util {

std::optional<double> try_parse_double(const std::string& text) noexcept {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    // strtod accepts "inf"/"nan" without ERANGE; neither is a usable config
    // value (NaN additionally defeats every downstream range check).
    return std::nullopt;
  }
  return value;
}

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  LBSIM_REQUIRE(count >= 1, "linspace needs at least one point");
  if (count == 1) return {lo};
  std::vector<double> out(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;  // avoid drift on the final point
  return out;
}

void KahanSum::add(double x) noexcept {
  const double y = x - carry_;
  const double t = sum_ + y;
  carry_ = (t - sum_) - y;
  sum_ = t;
}

double trapezoid(const std::vector<double>& y, double dx) {
  LBSIM_REQUIRE(dx > 0.0, "dx=" << dx);
  if (y.size() < 2) return 0.0;
  KahanSum acc;
  for (std::size_t i = 0; i + 1 < y.size(); ++i) acc.add(0.5 * (y[i] + y[i + 1]) * dx);
  return acc.value();
}

}  // namespace lbsim::util
