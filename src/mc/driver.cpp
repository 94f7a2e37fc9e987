#include "mc/driver.hpp"

#include <memory>
#include <thread>

#include "util/error.hpp"

namespace lbsim::mc {
namespace {

/// The testbed's communication layer: Erlang per-task bundle delays with the
/// TCP setup shift (Fig. 2), and the lossy UDP state plane.
net::Network::Config network_config(const ScenarioConfig& config) {
  net::Network::Config net_config;
  net_config.data_delay = std::make_unique<net::ErlangPerTaskDelay>(
      config.params.per_task_delay_mean, config.transfer_setup_shift);
  net_config.state_latency = config.state_latency;
  net_config.state_loss_probability = config.state_loss_probability;
  net_config.channel = config.channel;
  return net_config;
}

}  // namespace

TestbedWorker::TestbedWorker(const ScenarioConfig& scenario)
    : config(scenario), network(scenario.params.nodes.size(), network_config(scenario)) {}

RunResult TestbedWorker::run(core::LoadBalancingPolicy& policy, std::uint64_t seed,
                             std::uint64_t replication, RunTrace* trace,
                             obs::PhaseProfile* run_profile) {
  RunControls controls;
  controls.profile = run_profile;
  controls.workspace = &workspace;
  return run_testbed_replication(config, policy, network, seed, replication, trace, sim,
                                 controls);
}

void fold_queue_metrics(obs::Registry& metrics, const des::EventQueue::Stats& stats) {
  metrics.counter("des.events.scheduled").add(stats.scheduled);
  metrics.counter("des.events.popped").add(stats.popped);
  metrics.counter("des.events.cancelled").add(stats.cancelled);
  metrics.counter("des.slab.compactions").add(stats.compactions);
  metrics.gauge("des.queue.max_depth").max_of(static_cast<double>(stats.max_depth));
}

void fold_run_counters(obs::Registry& metrics, const std::string& engine,
                       const RunResult& run) {
  metrics.counter(engine + ".failures").add(run.failures);
  metrics.counter(engine + ".recoveries").add(run.recoveries);
  metrics.counter(engine + ".tasks_completed").add(run.tasks_completed);
  metrics.counter(engine + ".tasks_arrived").add(run.tasks_arrived);
  metrics.counter("env.transitions").add(run.env_transitions);
  metrics.counter("net.tasks_moved").add(run.tasks_moved);
  metrics.counter("net.bundles_sent").add(run.bundles_sent);
  metrics.counter("policy.decisions").add(run.policy_decisions);
  metrics.counter("policy.decisions.empty").add(run.policy_decisions_empty);
}

OrderedCommit::OrderedCommit(std::size_t reps, unsigned threads) : reps_(reps) {
  LBSIM_REQUIRE(reps >= 1, "replications=" << reps);
  const std::size_t wanted = threads == 0 ? std::thread::hardware_concurrency() : threads;
  workers_ = static_cast<unsigned>(std::clamp<std::size_t>(wanted, 1, reps));
  block_ = std::clamp<std::size_t>(reps / (4 * std::size_t{workers_}), 1, 32);
  window_ = 4 * std::size_t{workers_};
  blocks_ = (reps + block_ - 1) / block_;
  slots_ = std::min(reps, window_ * block_);
  finished_.assign(window_, 0);
}

void OrderedCommit::run(const std::function<void(unsigned)>& body) {
  const auto guarded = [&](unsigned tid) {
    try {
      body(tid);
    } catch (...) {
      fail(std::current_exception());
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers_ - 1);
  try {
    for (unsigned tid = 1; tid < workers_; ++tid) pool.emplace_back(guarded, tid);
  } catch (...) {
    fail(std::current_exception());  // the threads already started still join below
  }
  guarded(0);
  for (std::thread& thread : pool) thread.join();
  if (error_) std::rethrow_exception(error_);
}

bool OrderedCommit::claim(std::size_t& first, std::size_t& last) {
  if (failed_.load()) return false;
  const std::size_t block = next_block_.fetch_add(1);
  if (block >= blocks_) return false;
  if (block >= committed_.load() + window_) {
    std::unique_lock<std::mutex> lock(mutex_);
    ahead_.wait(lock, [&] { return failed_.load() || block < committed_.load() + window_; });
    if (failed_.load()) return false;
  }
  first = block * block_;
  last = std::min(reps_, first + block_);
  return true;
}

void OrderedCommit::fail(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) error_ = std::move(error);
  failed_.store(true);
  ahead_.notify_all();
}

}  // namespace lbsim::mc
