#pragma once
/// \file
/// Fixed-width text tables and CSV emission for report output.

#include <iosfwd>
#include <string>
#include <vector>

namespace lbsim::util {

/// Formats `value` with `digits` fractional digits (fixed notation).
[[nodiscard]] std::string format_double(double value, int digits);

/// A small column-aligned text table: set a header once, append rows, stream it.
/// Cells are strings; use `format_double` / `std::to_string` to fill them.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }
  [[nodiscard]] const std::vector<std::string>& header() const noexcept { return header_; }

  /// Renders with column alignment, a header underline, and 2-space gutters.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

  /// Renders as RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quotes a single CSV cell when needed.
[[nodiscard]] std::string csv_escape(const std::string& cell);

}  // namespace lbsim::util
