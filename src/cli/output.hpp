#pragma once
/// \file
/// Result writers for the lbsim CLI: CSV and JSON emission of a result table
/// together with run metadata (scenario, seed, replication counts, git
/// revision, wall time) so that any written artefact is self-describing and
/// reproducible from its own header.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "mc/engine.hpp"
#include "util/format.hpp"

namespace lbsim::cli {

/// Everything needed to re-run (and trust) a result file.
struct RunMetadata {
  std::string command;       ///< e.g. "lbsim run paper-two-node gain=0.5"
  std::string scenario;      ///< scenario or artefact name ("" when n/a)
  std::uint64_t seed = 0;
  /// Replications of the single run this file describes. 0 means "not a
  /// single-run artefact" (e.g. `lbsim perf`, which reports per-bench counts
  /// through `extra` instead) and is omitted from the emitted metadata.
  std::size_t replications = 0;
  unsigned threads = 0;      ///< 0 = hardware concurrency
  double wall_seconds = 0.0;
  std::string git_revision;  ///< `git describe` at configure time
  /// Additional ordered key=value pairs appended verbatim (e.g. the real
  /// per-bench replication counts of a perf baseline).
  std::vector<std::pair<std::string, std::string>> extra;

  /// Ordered key=value pairs, used identically by the CSV and JSON writers.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> items() const;
};

/// The `git describe --always --dirty` of the source tree at configure time
/// ("unknown" when the build was not configured inside a git checkout).
[[nodiscard]] std::string git_revision();

/// Writes `# key=value` metadata comment lines followed by the RFC-4180-ish
/// CSV of `table`.
void write_csv(std::ostream& os, const RunMetadata& meta, const util::TextTable& table);

/// Writes `{"metadata": {...}, "columns": [...], "rows": [[...], ...]}`.
/// Cells that parse as finite numbers are emitted unquoted.
void write_json(std::ostream& os, const RunMetadata& meta, const util::TextTable& table);

/// JSON string escaping (quotes, backslashes, control characters).
[[nodiscard]] std::string json_escape(const std::string& text);

/// The extra columns a variance-reduced run appends to run/sweep tables
/// (paired with append_vr_cells below; see mc::McVrReport).
[[nodiscard]] const std::vector<std::string>& vr_columns();

/// Formats one result's VR cells onto `row`: mode, adjusted mean, adjusted
/// 95% CI half width, and the equal-budget variance ratio. "-" markers when
/// the mode is none (mixed sweeps) and a "!" suffix on the mode name when a
/// requested component fell back (McVrReport.fallback).
void append_vr_cells(const mc::McResult& result, std::vector<std::string>& row);

/// Metadata entries documenting the estimator (vr.mode, vr.beta, vr.fallback,
/// ...) so JSON/CSV artefacts keep the full story behind the four table cells.
void note_vr_metadata(const mc::McResult& result, RunMetadata& meta);

}  // namespace lbsim::cli
