#include "cli/output.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#ifndef LBSIM_GIT_DESCRIBE
#define LBSIM_GIT_DESCRIBE "unknown"
#endif

namespace lbsim::cli {
namespace {

/// True when `cell` can be emitted as a bare JSON number.
bool is_json_number(const std::string& cell) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  return value == value &&  // not NaN
         value != std::numeric_limits<double>::infinity() &&
         value != -std::numeric_limits<double>::infinity();
}

std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", seconds);
  return buffer;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> RunMetadata::items() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("command", command);
  if (!scenario.empty()) out.emplace_back("scenario", scenario);
  out.emplace_back("seed", std::to_string(seed));
  // A zero count would be a lie (nothing ran 0 replications) — multi-bench
  // artefacts carry their real per-bench counts in `extra` instead.
  if (replications != 0) out.emplace_back("replications", std::to_string(replications));
  out.emplace_back("threads", threads == 0 ? "hardware" : std::to_string(threads));
  out.emplace_back("wall_seconds", format_seconds(wall_seconds));
  out.emplace_back("git", git_revision.empty() ? cli::git_revision() : git_revision);
  out.insert(out.end(), extra.begin(), extra.end());
  return out;
}

std::string git_revision() { return LBSIM_GIT_DESCRIBE; }

void write_csv(std::ostream& os, const RunMetadata& meta, const util::TextTable& table) {
  for (const auto& [key, value] : meta.items()) {
    os << "# " << key << "=" << value << "\n";
  }
  table.print_csv(os);
}

void write_json(std::ostream& os, const RunMetadata& meta, const util::TextTable& table) {
  os << "{\n  \"metadata\": {";
  const auto items = meta.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    os << (i != 0 ? ", " : "") << "\"" << json_escape(items[i].first) << "\": \""
       << json_escape(items[i].second) << "\"";
  }
  os << "},\n  \"columns\": [";
  const auto& header = table.header();
  for (std::size_t i = 0; i < header.size(); ++i) {
    os << (i != 0 ? ", " : "") << "\"" << json_escape(header[i]) << "\"";
  }
  os << "],\n  \"rows\": [";
  for (std::size_t r = 0; r < table.rows(); ++r) {
    os << (r != 0 ? ",\n    " : "\n    ") << "[";
    const auto& row = table.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c != 0 ? ", " : "");
      if (is_json_number(row[c])) {
        os << row[c];
      } else {
        os << "\"" << json_escape(row[c]) << "\"";
      }
    }
    os << "]";
  }
  os << "\n  ]\n}\n";
}

std::string json_escape(const std::string& text) {
  std::ostringstream out;
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out << buffer;
        } else {
          out << c;
        }
    }
  }
  return out.str();
}

const std::vector<std::string>& vr_columns() {
  static const std::vector<std::string> columns = {"vr", "adj_mean_s", "adj_ci95_s",
                                                   "vr_ratio"};
  return columns;
}

void append_vr_cells(const mc::McResult& result, std::vector<std::string>& row) {
  if (result.vr.requested == mc::VrMode::kNone) {
    row.insert(row.end(), {"none", "-", "-", "-"});
    return;
  }
  std::string mode = mc::vr_mode_name(result.vr.requested);
  if (!result.vr.fallback.empty()) mode += "!";
  row.push_back(std::move(mode));
  row.push_back(util::format_double(result.vr.mean, 3));
  row.push_back(util::format_double(result.vr.ci95(), 3));
  row.push_back(util::format_double(result.vr.variance_ratio, 2));
}

void note_vr_metadata(const mc::McResult& result, RunMetadata& meta) {
  if (result.vr.requested == mc::VrMode::kNone) return;
  meta.extra.emplace_back("vr.mode", mc::vr_mode_name(result.vr.requested));
  meta.extra.emplace_back("vr.variance_ratio",
                          util::format_double(result.vr.variance_ratio, 4));
  meta.extra.emplace_back("vr.observations", std::to_string(result.vr.observations));
  if (result.vr.control) {
    meta.extra.emplace_back("vr.beta", util::format_double(result.vr.beta, 4));
    meta.extra.emplace_back("vr.pilot", std::to_string(result.vr.pilot));
    meta.extra.emplace_back("vr.control_mean",
                            util::format_double(result.vr.control_mean, 4));
    meta.extra.emplace_back("vr.control_method", result.vr.control_method);
  }
  if (!result.vr.fallback.empty()) {
    meta.extra.emplace_back("vr.fallback", result.vr.fallback);
  }
}

}  // namespace lbsim::cli
