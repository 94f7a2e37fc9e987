#include "testbed/experiment.hpp"

#include <algorithm>
#include <memory>

#include "mc/driver.hpp"
#include "net/network.hpp"
#include "util/error.hpp"

namespace lbsim::testbed {
namespace {

/// The part of the config the replication core reads. Its policy stays with
/// the testbed config (the core runs it in place), and its communication layer
/// is the network's (network_config).
mc::ScenarioConfig as_scenario(const TestbedConfig& config) {
  mc::ScenarioConfig scenario;
  scenario.params = config.params;
  scenario.workloads = config.workloads;
  scenario.churn_enabled = config.churn_enabled;
  scenario.initially_down = config.initially_down;
  scenario.environment = config.environment;
  scenario.exchange_period = config.state_broadcast_period;
  scenario.state_channel = config.channel;
  return scenario;
}

/// The communication layer: Erlang per-task bundle delays with the TCP setup
/// shift (Fig. 2), and the lossy UDP state plane.
net::Network::Config network_config(const TestbedConfig& config) {
  net::Network::Config net_config;
  net_config.data_delay = std::make_unique<net::ErlangPerTaskDelay>(
      config.params.per_task_delay_mean, config.transfer_setup_shift);
  net_config.state_latency = config.state_latency;
  net_config.state_loss_probability = config.state_loss_probability;
  net_config.channel = config.channel;
  return net_config;
}

/// What a testbed worker builds once and reuses for every realization: the
/// converted config, its network, and (from mc::WorkerState) the simulator,
/// plus the workspace that mc::run_testbed_replication resets and re-seats
/// each time.
struct Emulation : mc::WorkerState {
  explicit Emulation(const TestbedConfig& config)
      : scenario(as_scenario(config)),
        network(config.params.nodes.size(), network_config(config)) {}

  mc::RunResult run(core::LoadBalancingPolicy& policy, std::uint64_t seed,
                    std::uint64_t replication, mc::RunTrace* trace,
                    obs::PhaseProfile* run_profile) {
    mc::RunControls controls;
    controls.profile = run_profile;
    controls.workspace = &workspace;
    return mc::run_testbed_replication(scenario, policy, network, seed, replication, trace, sim,
                                       controls);
  }

  mc::ScenarioConfig scenario;
  net::Network network;
  mc::ReplicationWorkspace workspace;
};

/// A run_experiment worker: an emulation and the policy clone its
/// realizations run.
struct Realizer : Emulation {
  explicit Realizer(const TestbedConfig& config)
      : Emulation(config), policy(config.policy->clone()) {}
  core::PolicyPtr policy;
};

}  // namespace

mc::RunResult run_realization(const TestbedConfig& config, std::uint64_t seed,
                              std::uint64_t replication, mc::RunTrace* trace,
                              obs::PhaseProfile* profile, obs::Registry* metrics) {
  validate(config);
  Emulation emulation(config);
  const mc::RunResult result = emulation.run(*config.policy, seed, replication, trace, profile);
  if (metrics != nullptr) mc::fold_queue_metrics(*metrics, emulation.sim.queue_stats());
  return result;
}

ExperimentSummary run_experiment(const TestbedConfig& config, std::size_t realizations,
                                 std::uint64_t seed, unsigned threads,
                                 const mc::ObsSinks& sinks) {
  LBSIM_REQUIRE(realizations >= 1, "realizations=" << realizations);
  validate(config);

  // Folded in replication order.
  ExperimentSummary summary;
  double failures = 0.0;
  double moved = 0.0;
  double state_lost = 0.0;

  mc::run_replications(
      realizations, threads, sinks, "testbed", [&] { return Realizer(config); },
      [&](Realizer& worker, std::size_t rep, mc::RunTrace* trace) {
        return worker.run(*worker.policy, seed, rep, trace,
                          sinks.profile != nullptr ? &worker.profile : nullptr);
      },
      [&](std::size_t, const mc::RunResult& run, obs::Registry* metrics) {
        summary.completion.add(run.completion_time);
        summary.state_age.merge(run.state_age);
        failures += static_cast<double>(run.failures);
        moved += static_cast<double>(run.tasks_moved);
        state_lost += static_cast<double>(run.state_packets_lost);
        summary.samples.push_back(run.completion_time);
        if (metrics == nullptr) return;
        metrics->counter("testbed.realizations").add(1);
        mc::fold_run_counters(*metrics, "testbed", run);
        metrics->counter("net.state_packets_lost").add(run.state_packets_lost);
        metrics->histogram("testbed.completion_time").observe(run.completion_time);
      });

  summary.mean_failures = failures / static_cast<double>(realizations);
  summary.mean_tasks_moved = moved / static_cast<double>(realizations);
  summary.mean_state_lost = state_lost / static_cast<double>(realizations);
  std::sort(summary.samples.begin(), summary.samples.end());
  return summary;
}

}  // namespace lbsim::testbed
