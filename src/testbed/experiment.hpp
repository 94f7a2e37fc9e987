#pragma once
/// \file
/// One realization of the emulated end-to-end experiment (paper Section 3).
///
/// The real experiments ran matrix-multiplication on two laptops over IEEE
/// 802.11b/g; we reproduce the system at the level the paper itself models it:
/// task sizes are random (exponential), service time is size / node-speed
/// (hence Exp(lambda_d) per task, Fig. 1), data bundles suffer a per-task
/// exponential delay plus a small connection-setup shift (Fig. 2), and state
/// information is exchanged in small UDP packets that can be lost. Each
/// realization runs through the Monte-Carlo replication core
/// (mc::run_testbed_replication), which switches these layers in as its three
/// testbed seams. Many realizations are mc::run_monte_carlo with
/// mc::Engine::kTestbed, behind the "Experimental result" columns of
/// Tables 1-2; one is run_realization, behind the queue traces of Fig. 4.

#include <cstdint>

#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "testbed/config.hpp"

namespace lbsim::testbed {

/// One emulated realization of `config` on a network, simulator and workspace
/// of its own (an mc::TestbedWorker); same result/trace types as the abstract
/// MC so that the artefacts can tabulate them side by side. The config's
/// policy runs in place. `profile` (optional) accumulates the setup /
/// event-loop wall-time split; `metrics` (optional) receives the
/// realization's DES-core instrument updates. Neither consumes RNG draws or
/// changes any simulated quantity. A config the testbed cannot run
/// (mc::check_emulable) or that holds an invalid value throws
/// std::invalid_argument.
[[nodiscard]] mc::RunResult run_realization(const mc::ScenarioConfig& config,
                                            std::uint64_t seed, std::uint64_t replication,
                                            mc::RunTrace* trace = nullptr,
                                            obs::PhaseProfile* profile = nullptr,
                                            obs::Registry* metrics = nullptr);

/// The names perfbench still runs the testbed by: mc::run_monte_carlo with
/// mc::Engine::kTestbed and collect_samples set.
using ExperimentSummary = mc::McResult;
[[nodiscard]] ExperimentSummary run_experiment(const mc::ScenarioConfig& config,
                                               std::size_t realizations, std::uint64_t seed,
                                               unsigned threads);

}  // namespace lbsim::testbed
