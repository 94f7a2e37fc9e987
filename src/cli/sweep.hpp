#pragma once
/// \file
/// Cartesian parameter sweeps over registered scenarios.
///
/// An axis is written `key=v1,v2,v3` (explicit list) or `key=lo:hi:step`
/// (inclusive range). `lbsim sweep` expands the cartesian product of every
/// axis, overrides each point's keys onto the scenario's base config, and runs
/// the parallel Monte-Carlo engine per point. Axes may target any scenario key
/// (gain, workloads, failure scales, delay parameters, ...) as well as the
/// engine keys `mc.reps`, `mc.threads`, and `mc.seed`.

#include <cstdint>
#include <string>
#include <vector>

#include "cli/config.hpp"
#include "cli/output.hpp"
#include "cli/registry.hpp"
#include "mc/engine.hpp"

namespace lbsim::cli {

/// One sweep dimension: a key and its ordered list of textual values.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Parses `key=v1,v2` or `key=lo:hi:step` (inclusive, step > 0). Throws
/// ConfigError on malformed specs or empty axes.
[[nodiscard]] SweepAxis parse_axis(const std::string& spec);

/// Expands the cartesian product, first axis slowest (row-major). Each point
/// is the list of (key, value) assignments in axis order.
[[nodiscard]] std::vector<std::vector<std::pair<std::string, std::string>>> expand_grid(
    const std::vector<SweepAxis>& axes);

/// Engine knobs for one sweep (defaults mirror mc::McConfig).
struct SweepOptions {
  std::size_t replications = 500;
  /// True when the user supplied a replication count (mc.reps or --reps).
  /// Steady-state families default to 1 window per point — each window is
  /// already tens of thousands of tasks and carries its own batch-means CI —
  /// so the finite default of 500 applies only when asked for explicitly.
  bool replications_explicit = false;
  unsigned threads = 0;
  std::uint64_t seed = 0x5eed2006;
  bool dry_run = false;  ///< list the points, run nothing
  /// Append p50_s/p90_s/p99_s columns: exact type-7 values up to
  /// mc::kExactQuantileCap replications per point, P² streaming estimates
  /// (O(1) memory) beyond.
  bool quantiles = false;
  /// When K > 0, collect raw samples and append K+1 empirical-quantile
  /// columns q0_s..q100_s at q = i/K — the point's ECDF at resolution K.
  std::size_t ecdf_points = 0;
  /// Append theory_mean/abs_err/sigma_err columns by dispatching each grid
  /// point to the matching exact solver (markov::TheoryOracle); points past
  /// the tractability boundary carry the "-" no-solver marker.
  bool compare_theory = false;
  /// Variance reduction per grid point (mc.vr / --vr); sweeping the mc.vr key
  /// as an axis compares estimators side by side. Any non-none value (base or
  /// axis) appends the vr/adj_mean_s/adj_ci95_s/vr_ratio columns.
  mc::VrMode vr = mc::VrMode::kNone;
  std::size_t cv_pilot = 0;  ///< control-variate pilot block (0 = engine auto)
  /// Observability sinks attached to every grid point (`--metrics`): the
  /// engines merge into the same registry, so the dump covers the whole grid.
  /// Attaching them never perturbs the swept statistics.
  mc::ObsSinks obs;
};

/// Result table of a sweep: one row per grid point (axis columns first, then
/// MC statistics), plus the metadata block for the writers.
struct SweepResult {
  util::TextTable table;
  RunMetadata metadata;
};

/// Runs the sweep of `axes` over `scenario` starting from `base` overrides.
/// Throws ConfigError on invalid axes/keys before any point runs.
[[nodiscard]] SweepResult run_sweep(const ScenarioSpec& scenario, const RawConfig& base,
                                    const std::vector<SweepAxis>& axes,
                                    const SweepOptions& options);

}  // namespace lbsim::cli
