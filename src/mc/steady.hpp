#pragma once
/// \file
/// Infinite-horizon (open-system) Monte-Carlo driver: each replication opens
/// an unbounded arrival stream, observes a fixed number of task completions,
/// truncates the initial transient with MSER-5, and summarises the stationary
/// sojourn time with batch-means confidence intervals and quantiles. Also the
/// open-system analogue of mc::map_to_theory: an exact M/M/1 stationary law
/// at the no-churn points.

#include <cstdint>
#include <string>
#include <vector>

#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "stochastic/steady_state.hpp"

namespace lbsim::mc {

struct SteadyConfig {
  /// Independent observation windows. One long window is usually the better
  /// spend (batch means already give a CI), so the default is 1; extra
  /// replications multiply the batch-means pool.
  std::size_t replications = 1;
  std::uint64_t seed = engine_defaults(Engine::kMc).seed;
  unsigned threads = 0;         ///< workers; 0 = one per hardware thread
  bool collect_samples = false; ///< keep post-warm-up sojourns (ECDF/KS use)
  /// Observability sinks (trace / metrics / profile), all optional and
  /// bit-identity-neutral (zero RNG draws).
  ObsSinks obs;
};

/// Everything the steady engine reports, deterministic in (config, seed,
/// replications). The quantiles are exact while the post-warm-up pool fits
/// the exact buffer (kExactQuantileCap, shared with the finite engine), and
/// count-weighted P² estimates past it.
struct SteadyResult {
  /// Pooled batch-means summary of the stationary sojourn time: grand mean,
  /// between-batch standard error, lag-1 autocorrelation diagnostic. Batch
  /// means are pooled across replications in replication order, so the
  /// estimate is independent of the thread count.
  stoch::BatchMeans batch;
  /// Stationary sojourn-time quantiles over the post-warm-up pool.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Observations MSER-5 truncated as warm-up, summed over replications.
  std::size_t warmup = 0;
  /// Simulated seconds, summed over replications.
  double horizon_time = 0.0;
  /// Time-averaged number of tasks in system (Little's law over the full
  /// windows: completed task-seconds / simulated time).
  double mean_queue_length = 0.0;
  double mean_failures = 0.0;     ///< churn events per replication
  double mean_tasks_moved = 0.0;  ///< migrated tasks per replication
  /// Post-warm-up sojourns, sorted (empty unless collect_samples).
  std::vector<double> samples;
  /// Post-warm-up sojourns in completion order, replications concatenated
  /// (empty unless collect_samples). Within-run samples are autocorrelated;
  /// consumers that need quasi-independent draws (the validate KS gate) thin
  /// this series by a stride, which sorting would make impossible.
  std::vector<double> series;

  [[nodiscard]] double mean() const noexcept { return batch.mean; }
  [[nodiscard]] double std_error() const noexcept { return batch.std_error; }
  [[nodiscard]] double ci95() const noexcept { return batch.ci95(); }
};

/// Runs the steady-state experiment. The arrival stream must be active and
/// unbounded, and config.steady's window parameters must be coherent.
[[nodiscard]] SteadyResult run_steady(const ScenarioConfig& config, const SteadyConfig& sc);

/// Open-system stationary theory: either the exact M/M/1 answer or the exact
/// scenario semantics that leave stationary sojourn time without a closed
/// form. Valid mappings are uniform-random (or single-target) Poisson unit
/// arrivals into churn-free exponential servers, where each node is an
/// independent M/M/1 queue.
struct OpenTheory {
  bool ok = false;
  std::string reason;    ///< valid iff !ok — pinned, grep-able decline strings
  double mean = 0.0;     ///< stationary E[sojourn]
  /// True when the sojourn law is exactly Exp(rate) (single target, or a
  /// homogeneous uniform split); a heterogeneous split is an exponential
  /// mixture, for which only the mean is reported.
  bool has_law = false;
  double rate = 0.0;     ///< Exp parameter mu - lambda_node, valid iff has_law
  double rho = 0.0;      ///< max per-node utilisation (the stability margin)
};

/// Maps `config` onto the M/M/1 stationary law. Pure (runs nothing).
[[nodiscard]] OpenTheory map_to_open_theory(const ScenarioConfig& config);

}  // namespace lbsim::mc
