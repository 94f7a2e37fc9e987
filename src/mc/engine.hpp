#pragma once
/// \file
/// Monte-Carlo engine: runs N independent replications of a scenario, on the
/// abstract model or the emulated testbed, on the ordered replication driver
/// (mc/driver.hpp), so every statistic is the same at any thread count, and
/// aggregates completion-time statistics.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mc/scenario.hpp"
#include "stochastic/stats.hpp"

namespace lbsim::mc {

/// Variance-reduction mode of the replication loop (the estimator layer; see
/// docs/ARCHITECTURE.md).
enum class VrMode {
  kNone,            ///< plain independent replications (the historical estimator)
  kAntithetic,      ///< mirrored-stream replication pairs
  kControlVariate,  ///< churn-free surrogate under common random numbers,
                    ///< exact control mean from the theory oracle
  kBoth,            ///< antithetic pairs, control-variate-adjusted pair means
};

/// CLI-facing name of a mode: none|antithetic|cv|both.
[[nodiscard]] const char* vr_mode_name(VrMode mode) noexcept;

/// Parses a vr_mode_name() string; false (and `mode` untouched) on anything else.
[[nodiscard]] bool parse_vr_mode(std::string_view text, VrMode& mode) noexcept;

/// What one replication runs: the abstract model of Section 2
/// (run_scenario), or the emulated testbed of Section 3
/// (run_testbed_replication), behind the paper's "Experimental result"
/// columns.
enum class Engine { kMc, kTestbed };

/// CLI-facing name of an engine, mc|testbed; also its metrics' prefix.
[[nodiscard]] const char* engine_name(Engine engine) noexcept;

/// An engine's default replication count and seed.
struct EngineDefaults {
  std::size_t replications;
  std::uint64_t seed;
};

/// The paper uses 500 replications for its MC columns and 20-60 realizations
/// per testbed configuration.
[[nodiscard]] constexpr EngineDefaults engine_defaults(Engine engine) noexcept {
  return engine == Engine::kTestbed ? EngineDefaults{60, 0xbed2006}
                                    : EngineDefaults{500, 0x5eed2006};
}

struct McConfig {
  /// The testbed refuses what check_emulable refuses, and variance reduction.
  Engine engine = Engine::kMc;
  std::size_t replications = engine_defaults(Engine::kMc).replications;
  std::uint64_t seed = engine_defaults(Engine::kMc).seed;
  unsigned threads = 0;            ///< workers; 0 = one per hardware thread
  bool collect_samples = false;    ///< keep raw completion times (ECDF/quantiles)
  /// Variance reduction. Antithetic modes need an even replication count; the
  /// control variate needs a churn-affected scenario whose churn-free
  /// surrogate maps to theory, and falls back (with McVrReport.fallback set)
  /// when it does not.
  VrMode vr = VrMode::kNone;
  /// Control-variate pilot observations (used to fit beta only); 0 = auto
  /// (roughly 10% of the observations, clamped to [4, 64]).
  std::size_t cv_pilot = 0;
  /// Observability sinks (trace / metrics / profile), all optional. Attaching
  /// any of them consumes zero RNG draws and leaves every statistic
  /// bit-identical to an unobserved run.
  ObsSinks obs;
};

/// Largest replication count for which the engine computes its quantile
/// summary exactly even without collect_samples (a transient, bounded sample
/// buffer of ~512 KiB). Past this the streaming P² path takes over so
/// unbounded sweeps stay O(1) memory.
inline constexpr std::size_t kExactQuantileCap = 65536;

/// Report of the variance-reduced estimator (McResult.vr). `mean`/`std_error`
/// are the *adjusted* estimate; the raw (plain) statistics stay in
/// McResult.completion, so callers always see both. A requested component
/// that is inadmissible for the scenario is dropped, not fatal: `fallback`
/// carries the reason and the remaining components (possibly none) stay
/// active.
struct McVrReport {
  VrMode requested = VrMode::kNone;
  bool antithetic = false;  ///< pair-mean estimator active
  bool control = false;     ///< control-variate adjustment active
  std::string fallback;     ///< why a requested component is inactive; "" = all active
  double mean = 0.0;        ///< adjusted estimate (== raw when nothing is active)
  double std_error = 0.0;
  std::size_t observations = 0;  ///< adjusted observations behind the estimate
  double beta = 0.0;             ///< fitted control coefficient (control only)
  double control_mean = 0.0;     ///< exact E[control] from the oracle
  std::string control_method;    ///< oracle solver behind control_mean
  std::size_t pilot = 0;         ///< observations spent calibrating beta
  /// Equal-replication-budget variance ratio Var(plain) / Var(adjusted): the
  /// factor by which the adjusted estimator multiplies effective throughput
  /// at a fixed replication count. Extra per-replication cost (the control's
  /// surrogate run) is *not* folded in — it shows up in measured reps/s.
  double variance_ratio = 1.0;

  /// 95% normal-approximation half width of the adjusted estimate.
  [[nodiscard]] double ci95() const noexcept { return 1.96 * std_error; }
};

struct McResult {
  stoch::RunningStats completion;   ///< completion-time statistics
  double mean_failures = 0.0;       ///< average churn events per run
  double mean_tasks_moved = 0.0;    ///< average migrated tasks per run
  double mean_bundles = 0.0;        ///< average transfers per run
  /// Per-decision peer state age pooled over all runs (testbed engine; see
  /// RunResult::state_age).
  stoch::RunningStats state_age;
  double mean_state_lost = 0.0;     ///< state-plane packets dropped per run (testbed)
  std::vector<double> samples;      ///< raw times, sorted (empty unless collect_samples)
  /// Completion-time quantiles, always populated: exact type-7 values when
  /// collect_samples is on or replications <= kExactQuantileCap, and beyond
  /// the cap P² streaming estimates (O(1) memory, good to roughly a percent).
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Variance-reduction report; requested == VrMode::kNone outside VR runs.
  /// VR runs always store all per-replication values transiently, so their
  /// quantile summary is exact at any replication count.
  McVrReport vr;

  [[nodiscard]] double mean() const noexcept { return completion.mean(); }
  [[nodiscard]] double std_error() const noexcept { return completion.std_error(); }
  /// 95% normal-approximation half width.
  [[nodiscard]] double ci95() const noexcept;

  /// Exact type-7 quantile of the collected samples; requires collect_samples.
  [[nodiscard]] double sample_quantile(double q) const;
};

/// Runs the experiment on mc.engine. Deterministic in (config, mc.engine,
/// mc.seed, mc.replications).
[[nodiscard]] McResult run_monte_carlo(const ScenarioConfig& config, const McConfig& mc);

}  // namespace lbsim::mc
