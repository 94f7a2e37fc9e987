#pragma once
/// \file
/// Cartesian parameter sweeps over registered scenarios.
///
/// An axis is written `key=v1,v2,v3` (explicit list) or `key=lo:hi:step`
/// (inclusive range). `lbsim sweep` expands the cartesian product of every
/// axis, overrides each point's keys onto the scenario's base config, and runs
/// mc::run_monte_carlo per point, on the abstract model or the testbed (or
/// mc::run_steady on an infinite-horizon family), so that a one-point sweep
/// prints the row `lbsim run` prints. Axes may target any scenario key (gain,
/// workloads, failure scales, delay parameters, ...) as well as the engine
/// keys `mc.reps`, `mc.threads`, `mc.seed`, `mc.vr` and `mc.cv-pilot`.

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

/// Engine knobs for one sweep.
struct SweepOptions {
  /// The engine every finite-horizon point runs on (`lbsim sweep`: the
  /// family's own, or the one `engine=` names).
  mc::Engine engine = mc::Engine::kMc;
  /// 0 = the engine's default (mc::engine_defaults). A steady-state family
  /// defaults to 1 window per point instead: each window is already tens of
  /// thousands of tasks and carries its own batch-means CI.
  std::size_t replications = 0;
  unsigned threads = 0;
  std::uint64_t seed = 0;  ///< 0 = the engine's default
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
