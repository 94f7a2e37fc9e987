#pragma once
/// \file
/// Shared presentation helpers for `lbsim reproduce` and the ablation
/// binaries: consistent banners, ASCII curves for the "figure" artefacts, and
/// paper-vs-measured comparison lines.

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/format.hpp"

namespace lbsim::cli {

/// "(m0,m1)" workload label for the table artefacts. Built via a stream: the
/// chained std::to_string concatenation trips gcc 12's -Wrestrict false
/// positive at -O2.
inline std::string workload_label(std::size_t m0, std::size_t m1) {
  std::ostringstream out;
  out << '(' << m0 << ',' << m1 << ')';
  return out.str();
}

/// Prints the standard banner naming which paper artefact a run regenerates.
inline void print_banner(std::ostream& os, const std::string& artefact,
                         const std::string& description) {
  os << "==============================================================\n"
     << artefact << " - " << description << "\n"
     << "Dhakal et al., IPDPS 2006 (reproduction)\n"
     << "==============================================================\n";
}

/// Renders y(x) as a fixed-height ASCII chart (rows top-down), for the
/// "figure" artefacts where the shape matters more than exact values.
inline void print_ascii_curve(std::ostream& os, const std::vector<double>& xs,
                              const std::vector<std::vector<double>>& series,
                              const std::vector<std::string>& labels, int height = 16) {
  if (xs.empty() || series.empty()) return;
  double lo = series[0][0], hi = series[0][0];
  for (const auto& ys : series) {
    for (const double y : ys) {
      lo = std::min(lo, y);
      hi = std::max(hi, y);
    }
  }
  if (hi <= lo) hi = lo + 1.0;
  const char* glyphs = "*o+x#";
  for (int row = height; row >= 0; --row) {
    const double level = lo + (hi - lo) * row / height;
    std::string line(xs.size(), ' ');
    for (std::size_t s = 0; s < series.size(); ++s) {
      for (std::size_t i = 0; i < xs.size() && i < series[s].size(); ++i) {
        const double y = series[s][i];
        const double cell = (hi - lo) / height;
        if (y >= level - cell / 2 && y < level + cell / 2) {
          line[i] = glyphs[s % 5];
        }
      }
    }
    os << util::format_double(level, 1) << "\t|" << line << "\n";
  }
  os << "\t+" << std::string(xs.size(), '-') << "\n";
  os << "\t x: " << xs.front() << " .. " << xs.back() << "\n";
  for (std::size_t s = 0; s < labels.size(); ++s) {
    os << "\t '" << glyphs[s % 5] << "' = " << labels[s] << "\n";
  }
}

/// "paper vs measured" comparison line used by EXPERIMENTS.md extraction.
inline void print_comparison(std::ostream& os, const std::string& what, double paper,
                             double measured) {
  os << "  " << what << ": paper=" << util::format_double(paper, 2)
     << "  measured=" << util::format_double(measured, 2) << "  (ratio "
     << util::format_double(measured / paper, 3) << ")\n";
}

}  // namespace lbsim::cli
