#pragma once
/// \file
/// Regeneration of the paper's artefacts (Tables 1-3, Figures 1-5) and of two
/// ablations (the optimal gain against the failure rates, and LBP-1 tuned on
/// estimated churn rates) behind one entry point, `lbsim reproduce <name>`.
///
/// Each artefact runner prints a banner, its table and any shape checks, and
/// returns its primary result table so the CLI can re-emit it as CSV/JSON with
/// run metadata. The `reproduce.<name>` CTest entries run every artefact at
/// its quick size and fail on a "VIOLATED" shape check (fig3, fig5 and both
/// ablations) or on "No crossover observed" (table3). Table 1 and Table 2 additionally expose a
/// cheap "golden block" — the exact-solver values at the pinned operating
/// point (m0,m1) = (100,60), gain 0.35 of tests/markov_golden_test.cpp — used
/// by the golden-output CTest entry.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/format.hpp"

namespace lbsim::cli {

/// Options shared by every artefact runner.
struct ArtifactOptions {
  bool quick = false;            ///< fewer replications, coarser grids
  bool golden_only = false;      ///< table1/table2: print only the golden block
  std::size_t mc_reps = 0;       ///< replications (adaptive gain: trials); 0 = default
  std::size_t realizations = 0;  ///< testbed realisations; 0 = default
  std::uint64_t seed = 0;        ///< 0 = artefact default
  std::string format = "table";  ///< table | csv | json
};

/// Names accepted by `lbsim reproduce`, in presentation order.
[[nodiscard]] const std::vector<std::string>& artifact_names();

/// One-line description of an artefact (for `lbsim list`); throws
/// std::invalid_argument for unknown names.
[[nodiscard]] std::string artifact_summary(const std::string& name);

/// Runs one artefact, writing human output (or CSV/JSON when
/// options.format != "table") to `os`. Returns the primary result table.
/// Throws std::invalid_argument for unknown names.
util::TextTable reproduce_artifact(const std::string& name, const ArtifactOptions& options,
                                   std::ostream& os);

/// The Table 1 / Table 2 golden blocks: metric/value rows for the pinned
/// operating point. Exposed separately so tests can compare values directly.
[[nodiscard]] util::TextTable table1_golden_block();
[[nodiscard]] util::TextTable table2_golden_block();

}  // namespace lbsim::cli
