#pragma once
/// \file
/// The emulated end-to-end experiment: application layer (random-size
/// matrix-row tasks, size-proportional execution), communication layer
/// (Erlang per-task bundle delays with setup shift; periodic lossy UDP state
/// exchange), and LB/failure layer (policy + failure injector + backup agent).
/// Each realisation runs through the Monte-Carlo replication core
/// (mc::run_testbed_replication), which switches these layers in as its three
/// testbed seams. This produces the "Experimental Result" columns of Tables
/// 1-2 and the queue realisations of Fig. 4.

#include <cstdint>

#include "mc/scenario.hpp"
#include "stochastic/stats.hpp"
#include "testbed/config.hpp"

namespace lbsim::testbed {

/// One emulated realisation on a simulator and workspace of its own; same
/// result/trace types as the abstract MC so that benches can tabulate them
/// side by side. The config's policy runs in place. `profile` (optional)
/// accumulates the setup / event-loop wall-time split; `metrics` (optional)
/// receives the realisation's DES-core instrument updates. Neither consumes
/// RNG draws or changes any simulated quantity.
[[nodiscard]] mc::RunResult run_realization(const TestbedConfig& config, std::uint64_t seed,
                                            std::uint64_t replication,
                                            mc::RunTrace* trace = nullptr,
                                            obs::PhaseProfile* profile = nullptr,
                                            obs::Registry* metrics = nullptr);

struct ExperimentSummary {
  stoch::RunningStats completion;
  double mean_failures = 0.0;
  double mean_tasks_moved = 0.0;
  /// Per-decision peer state age pooled over all realizations (see
  /// mc::RunResult::state_age).
  stoch::RunningStats state_age;
  /// State-plane packets dropped per realization, averaged.
  double mean_state_lost = 0.0;
  std::vector<double> samples;

  [[nodiscard]] double mean() const noexcept { return completion.mean(); }
  [[nodiscard]] double ci95() const noexcept { return stoch::ci_half_width(completion); }
};

/// Runs `realizations` independent emulated experiments (the paper uses
/// 20-60 per configuration) on the ordered replication driver (mc/driver.hpp)
/// with `threads` workers (0 = hardware concurrency), deterministic in
/// (config, realizations, seed). Each worker clones the policy once and
/// reuses one simulator and one mc::ReplicationWorkspace for every
/// realization it runs. `sinks` optionally attaches the observability layer.
[[nodiscard]] ExperimentSummary run_experiment(const TestbedConfig& config,
                                               std::size_t realizations,
                                               std::uint64_t seed = 0xbed2006,
                                               unsigned threads = 0,
                                               const mc::ObsSinks& sinks = {});

}  // namespace lbsim::testbed
