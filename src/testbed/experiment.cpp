#include "testbed/experiment.hpp"

#include "mc/driver.hpp"

namespace lbsim::testbed {

mc::RunResult run_realization(const mc::ScenarioConfig& config, std::uint64_t seed,
                              std::uint64_t replication, mc::RunTrace* trace,
                              obs::PhaseProfile* profile, obs::Registry* metrics) {
  mc::check_emulable(config);
  mc::TestbedWorker worker(config);
  const mc::RunResult result = worker.run(*config.policy, seed, replication, trace, profile);
  if (metrics != nullptr) mc::fold_queue_metrics(*metrics, worker.sim.queue_stats());
  return result;
}

ExperimentSummary run_experiment(const mc::ScenarioConfig& config, std::size_t realizations,
                                 std::uint64_t seed, unsigned threads) {
  mc::McConfig mc;
  mc.engine = mc::Engine::kTestbed;
  mc.replications = realizations;
  mc.seed = seed;
  mc.threads = threads;
  mc.collect_samples = true;
  return mc::run_monte_carlo(config, mc);
}

}  // namespace lbsim::testbed
