#pragma once
/// \file
/// The replication driver every engine runs on: run_monte_carlo (plain,
/// variance-reduced and on the testbed) and run_steady. Workers claim
/// blocks of replications from a shared counter and run them on state of
/// their own; the driver hands every replication's result to the engine's
/// fold strictly in replication order. An engine therefore folds, at any
/// thread count, exactly what it folds on one thread, and each of its
/// estimates depends only on (scenario, seed, replications).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mc/scenario.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace lbsim::mc {

/// What every engine's per-worker state carries: the simulator its
/// replications reuse and the phase profile they accumulate into.
struct WorkerState {
  des::Simulator sim;
  obs::PhaseProfile profile;
};

/// A worker of the abstract-model engines (plain and variance-reduced MC,
/// steady state): its clone of the scenario, plus the workspace and the run
/// controls (shared graphs, workspace, profile when attached) that every
/// replication it runs reuses.
struct ScenarioWorker : WorkerState {
  ScenarioWorker(const ScenarioConfig& scenario,
                 const std::vector<net::Topology>& topology_states, bool profiled)
      : config(scenario.clone()) {
    controls.topology_states = &topology_states;
    controls.workspace = &workspace;
    if (profiled) controls.profile = &profile;
  }

  ScenarioConfig config;
  ReplicationWorkspace workspace;
  RunControls controls;
};

/// A worker of the testbed engine: the network the config's communication
/// layer describes (Erlang per-task bundle delays with the TCP setup shift of
/// Fig. 2, and the lossy UDP state plane), plus the workspace that
/// run_testbed_replication resets and re-seats every realization. It reads
/// the caller's config in place, which must outlive it unchanged.
struct TestbedWorker : WorkerState {
  explicit TestbedWorker(const ScenarioConfig& scenario);

  /// One realization with `policy` (a clone of config.policy, or that policy
  /// in place); `run_profile` (optional) accumulates its phase times.
  [[nodiscard]] RunResult run(core::LoadBalancingPolicy& policy, std::uint64_t seed,
                              std::uint64_t replication, RunTrace* trace,
                              obs::PhaseProfile* run_profile);

  const ScenarioConfig& config;
  net::Network network;
  ReplicationWorkspace workspace;
};

/// Folds a simulator's cumulative DES-core stats (every replication it ran)
/// into `metrics`.
void fold_queue_metrics(obs::Registry& metrics, const des::EventQueue::Stats& stats);

/// Folds the counters every engine keeps for one replication into `metrics`:
/// `engine`.failures, .recoveries, .tasks_completed and .tasks_arrived,
/// env.transitions, and the net.* and policy.* counts.
void fold_run_counters(obs::Registry& metrics, const std::string& engine, const RunResult& run);

/// The engine-independent half of run_replications: the worker pool, block
/// claiming and the in-order commit. `threads` workers (0 =
/// std::thread::hardware_concurrency()), clamped to [1, reps]; blocks of
/// reps / (4 workers) replications, clamped to [1, 32], so that a short run
/// still gives every worker several blocks; and a window of 4 blocks per
/// worker, which bounds how far a worker may run ahead of the commit point.
class OrderedCommit {
 public:
  OrderedCommit(std::size_t reps, unsigned threads);
  OrderedCommit(const OrderedCommit&) = delete;  // its workers hold its address
  OrderedCommit& operator=(const OrderedCommit&) = delete;

  [[nodiscard]] unsigned workers() const noexcept { return workers_; }
  /// Size of the reorder buffer, in replications.
  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  /// Reorder-buffer slot of replication `rep`. Block k reuses the slots of
  /// block k - window, which is committed before block k can be claimed.
  [[nodiscard]] std::size_t slot(std::size_t rep) const noexcept { return rep % slots_; }

  /// Runs body(tid) for every worker tid, 0 on the calling thread and the
  /// rest on threads of their own, and joins them. The first exception a
  /// worker throws stops further claims and is rethrown here after the join.
  void run(const std::function<void(unsigned)>& body);

  /// Claims the next block, replications [first, last), waiting while it is
  /// a window ahead of the oldest uncommitted block. False once every block
  /// is claimed or a worker has failed.
  [[nodiscard]] bool claim(std::size_t& first, std::size_t& last);

  /// Marks the block that starts at `first` finished. If it is the oldest
  /// uncommitted block, commits it and every finished block after it:
  /// commit(rep) for each of their replications, in replication order, under
  /// the commit mutex (so never concurrently).
  template <typename Commit>
  void finish(std::size_t first, Commit&& commit) {
    const std::size_t block = first / block_;
    std::lock_guard<std::mutex> lock(mutex_);
    finished_[block % window_] = 1;
    std::size_t next = committed_.load();
    if (block != next) return;  // an older block's worker commits this one
    for (; next < blocks_ && finished_[next % window_] != 0; ++next) {
      finished_[next % window_] = 0;
      const std::size_t end = std::min(reps_, (next + 1) * block_);
      for (std::size_t rep = next * block_; rep < end; ++rep) commit(rep);
    }
    committed_.store(next);
    ahead_.notify_all();
  }

 private:
  void fail(std::exception_ptr error);

  std::size_t reps_;
  unsigned workers_;
  std::size_t block_;
  std::size_t window_;
  std::size_t blocks_;
  std::size_t slots_;
  std::atomic<std::size_t> next_block_{0};
  std::atomic<std::size_t> committed_{0};  ///< blocks committed; written under mutex_
  std::atomic<bool> failed_{false};
  std::vector<char> finished_;  ///< per window position; guarded by mutex_
  std::exception_ptr error_;    ///< the first failure; guarded by mutex_
  std::mutex mutex_;
  std::condition_variable ahead_;
};

/// Runs replications [0, reps) and hands each result to `fold` in
/// replication order.
/// - `make()` returns a WorkerState-derived worker by value. Each worker
///   builds one, once per call, on its own thread's stack.
/// - `run(worker, rep, trace)` runs replication `rep` and returns its result.
///   `trace` is the replication's own buffer, null unless sinks.trace is set.
/// - `fold(rep, result, metrics)` sees every replication once, in order,
///   never concurrently. The replication's trace joins sinks.trace just
///   before it, behind a kRepBegin marker (payload = rep). `metrics` is the
///   run's own registry, null unless sinks.metrics is set; it is merged into
///   the sink once, after the join, so the sink sees one block of updates
///   whatever it held before.
/// Under sinks.profile the commits are timed into the committing worker's
/// fold_s. After the join every worker's DES-core stats fold into
/// sinks.metrics, with an `engine`.reps_per_s gauge, and its profile into
/// sinks.profile. A replication that throws stops the run; its exception
/// reaches the caller after the join.
template <typename Make, typename Run, typename Fold>
void run_replications(std::size_t reps, unsigned threads, const ObsSinks& sinks,
                      const std::string& engine, Make&& make, Run&& run, Fold&& fold) {
  using Worker = std::invoke_result_t<Make&>;
  using Result = std::invoke_result_t<Run&, Worker&, std::size_t, RunTrace*>;
  static_assert(std::is_base_of_v<WorkerState, Worker>);
  /// What a worker leaves for the after-join fold when its state goes.
  struct Totals {
    des::EventQueue::Stats queue;
    obs::PhaseProfile profile;
  };
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();

  OrderedCommit order(reps, threads);
  // The reorder buffer and the per-worker totals are allocated here, on the
  // calling thread, before any worker starts.
  std::vector<Result> results(order.slots());
  std::vector<RunTrace> traces(sinks.trace != nullptr ? order.slots() : 0);
  std::vector<Totals> totals(order.workers());
  obs::Registry run_metrics;
  obs::Registry* metrics = sinks.metrics != nullptr ? &run_metrics : nullptr;

  order.run([&](unsigned tid) {
    Worker worker = make();
    std::size_t first = 0;
    std::size_t last = 0;
    while (order.claim(first, last)) {
      for (std::size_t rep = first; rep < last; ++rep) {
        const std::size_t slot = order.slot(rep);
        results[slot] = run(worker, rep, traces.empty() ? nullptr : &traces[slot]);
      }
      Clock::time_point commit_begin{};
      if (sinks.profile != nullptr) commit_begin = Clock::now();
      order.finish(first, [&](std::size_t rep) {
        const std::size_t slot = order.slot(rep);
        if (sinks.trace != nullptr) {
          sinks.trace->emit(0.0, obs::Kind::kRepBegin, -1, -1, 0, rep);
          sinks.trace->absorb(std::move(traces[slot].events));
        }
        fold(rep, results[slot], metrics);
      });
      if (sinks.profile != nullptr) {
        worker.profile.fold_s +=
            std::chrono::duration<double>(Clock::now() - commit_begin).count();
      }
    }
    totals[tid] = {worker.sim.queue_stats(), worker.profile};
  });

  for (const Totals& t : totals) {
    if (metrics != nullptr) fold_queue_metrics(*sinks.metrics, t.queue);
    if (sinks.profile != nullptr) sinks.profile->merge(t.profile);
  }
  if (metrics == nullptr) return;
  sinks.metrics->merge(run_metrics);
  const double wall_s = std::chrono::duration<double>(Clock::now() - begin).count();
  if (wall_s > 0.0) {
    sinks.metrics->gauge(engine + ".reps_per_s").set(static_cast<double>(reps) / wall_s);
  }
}

}  // namespace lbsim::mc
