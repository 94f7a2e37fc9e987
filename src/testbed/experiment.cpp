#include "testbed/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "net/network.hpp"
#include "sim/simulator.hpp"
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
/// converted config, its network, and the simulator and workspace that
/// mc::run_testbed_replication resets and re-seats each time.
struct Emulation {
  explicit Emulation(const TestbedConfig& config)
      : scenario(as_scenario(config)),
        network(config.params.nodes.size(), network_config(config)) {}

  mc::RunResult run(core::LoadBalancingPolicy& policy, std::uint64_t seed,
                    std::uint64_t replication, mc::RunTrace* trace,
                    obs::PhaseProfile* profile) {
    mc::RunControls controls;
    controls.profile = profile;
    controls.workspace = &workspace;
    return mc::run_testbed_replication(scenario, policy, network, seed, replication, trace, sim,
                                       controls);
  }

  /// Folds the simulator's DES-core stats, cumulative over every realization
  /// it ran, into `metrics`.
  void fold_queue_metrics(obs::Registry& metrics) const {
    const des::EventQueue::Stats& qs = sim.queue_stats();
    metrics.counter("des.events.scheduled").add(qs.scheduled);
    metrics.counter("des.events.popped").add(qs.popped);
    metrics.counter("des.events.cancelled").add(qs.cancelled);
    metrics.counter("des.slab.compactions").add(qs.compactions);
    metrics.gauge("des.queue.max_depth").max_of(static_cast<double>(qs.max_depth));
  }

  mc::ScenarioConfig scenario;
  net::Network network;
  des::Simulator sim;
  mc::ReplicationWorkspace workspace;
};

}  // namespace

mc::RunResult run_realization(const TestbedConfig& config, std::uint64_t seed,
                              std::uint64_t replication, mc::RunTrace* trace,
                              obs::PhaseProfile* profile, obs::Registry* metrics) {
  validate(config);
  Emulation emulation(config);
  const mc::RunResult result = emulation.run(*config.policy, seed, replication, trace, profile);
  if (metrics != nullptr) emulation.fold_queue_metrics(*metrics);
  return result;
}

ExperimentSummary run_experiment(const TestbedConfig& config, std::size_t realizations,
                                 std::uint64_t seed, unsigned threads,
                                 const mc::ObsSinks& sinks) {
  LBSIM_REQUIRE(realizations >= 1, "realizations=" << realizations);
  validate(config);  // here, not in a worker thread, where a throw would terminate
  unsigned workers = threads == 0 ? std::thread::hardware_concurrency() : threads;
  workers = std::max(1u, std::min<unsigned>(workers, static_cast<unsigned>(realizations)));

  using ProfileClock = std::chrono::steady_clock;
  const ProfileClock::time_point wall_begin = ProfileClock::now();

  // Each realization traces into its own buffer; the fold below stitches them
  // in replication order, so the merged trace is thread-count-independent.
  std::vector<mc::RunTrace> rep_traces;
  if (sinks.trace != nullptr) {
    rep_traces.resize(realizations);
    for (mc::RunTrace& t : rep_traces) t.record_queues = false;
  }

  struct Partial {
    stoch::RunningStats completion;
    stoch::RunningStats state_age;
    double failures = 0.0;
    double moved = 0.0;
    double state_lost = 0.0;
    std::vector<double> samples;
    obs::Registry metrics;      // folded in worker-id order (commutative merges)
    obs::PhaseProfile profile;  // folded by summation
  };
  std::vector<Partial> partials(workers);

  const auto worker = [&](unsigned tid) {
    const TestbedConfig local = config.clone();
    Emulation emulation(local);
    Partial& out = partials[tid];
    obs::Registry* metrics = sinks.metrics != nullptr ? &out.metrics : nullptr;
    obs::PhaseProfile* profile = sinks.profile != nullptr ? &out.profile : nullptr;
    for (std::size_t rep = tid; rep < realizations; rep += workers) {
      mc::RunTrace* trace = sinks.trace != nullptr ? &rep_traces[rep] : nullptr;
      const mc::RunResult run = emulation.run(*local.policy, seed, rep, trace, profile);
      ProfileClock::time_point fold_begin{};
      if (profile != nullptr) fold_begin = ProfileClock::now();
      out.completion.add(run.completion_time);
      out.state_age.merge(run.state_age);
      out.failures += static_cast<double>(run.failures);
      out.moved += static_cast<double>(run.tasks_moved);
      out.state_lost += static_cast<double>(run.state_packets_lost);
      out.samples.push_back(run.completion_time);
      if (metrics != nullptr) {
        metrics->counter("testbed.realizations").add(1);
        metrics->counter("testbed.failures").add(run.failures);
        metrics->counter("testbed.recoveries").add(run.recoveries);
        metrics->counter("testbed.tasks_completed").add(run.tasks_completed);
        metrics->counter("net.tasks_moved").add(run.tasks_moved);
        metrics->counter("net.bundles_sent").add(run.bundles_sent);
        metrics->counter("net.state_packets_lost").add(run.state_packets_lost);
        metrics->counter("policy.decisions").add(run.policy_decisions);
        metrics->counter("policy.decisions.empty").add(run.policy_decisions_empty);
        metrics->histogram("testbed.completion_time").observe(run.completion_time);
      }
      if (profile != nullptr) {
        profile->fold_s +=
            std::chrono::duration<double>(ProfileClock::now() - fold_begin).count();
      }
    }
    if (metrics != nullptr) emulation.fold_queue_metrics(*metrics);
  };

  if (workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }

  ExperimentSummary summary;
  double failures = 0.0;
  double moved = 0.0;
  double state_lost = 0.0;
  for (Partial& p : partials) {
    summary.completion.merge(p.completion);
    summary.state_age.merge(p.state_age);
    failures += p.failures;
    moved += p.moved;
    state_lost += p.state_lost;
    summary.samples.insert(summary.samples.end(), p.samples.begin(), p.samples.end());
    if (sinks.metrics != nullptr) sinks.metrics->merge(p.metrics);
    if (sinks.profile != nullptr) sinks.profile->merge(p.profile);
  }
  summary.mean_failures = failures / static_cast<double>(realizations);
  summary.mean_tasks_moved = moved / static_cast<double>(realizations);
  summary.mean_state_lost = state_lost / static_cast<double>(realizations);
  std::sort(summary.samples.begin(), summary.samples.end());

  if (sinks.trace != nullptr) {
    for (std::size_t rep = 0; rep < realizations; ++rep) {
      sinks.trace->emit(0.0, obs::Kind::kRepBegin, -1, -1, 0, rep);
      sinks.trace->absorb(std::move(rep_traces[rep].events));
    }
  }
  if (sinks.metrics != nullptr) {
    const double wall_s =
        std::chrono::duration<double>(ProfileClock::now() - wall_begin).count();
    if (wall_s > 0.0) {
      sinks.metrics->gauge("testbed.reps_per_s")
          .set(static_cast<double>(realizations) / wall_s);
    }
  }
  return summary;
}

}  // namespace lbsim::testbed
