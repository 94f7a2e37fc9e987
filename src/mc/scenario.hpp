#pragma once
/// \file
/// One Monte-Carlo replication of the abstract model of Section 2: exponential
/// service per task, alternating exponential failure/recovery per node, and
/// exponential load-dependent bundle delays — exactly the laws the
/// regeneration analysis assumes, so MC means must converge to the solver's.
/// The same replication core runs the emulated testbed of Section 3
/// (run_testbed_replication), which differs from the model in three seams
/// only: its service law, its bundle delays and its decision plane.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "env/arrivals.hpp"
#include "env/environment.hpp"
#include "env/schedule.hpp"
#include "markov/params.hpp"
#include "net/channel.hpp"
#include "net/delay_model.hpp"
#include "net/topology.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "stochastic/stats.hpp"

namespace lbsim::des {
class Simulator;
}

namespace lbsim::net {
class Network;
}

namespace lbsim::mc {

/// Knobs for the steady-state engine (mc::run_steady); inert on the finite
/// path. The CLI routes a family to that engine by its ScenarioSpec::steady.
struct SteadySpec {
  /// Completed tasks observed per replication (the observation window).
  std::size_t tasks = 20000;
  /// Non-overlapping batch count for the batch-means CI.
  std::size_t batches = 32;
  /// MSER-5 may truncate at most this fraction of the window as warm-up.
  double warmup_cap = 0.5;
};

/// A complete experiment description, on the abstract MC and the testbed
/// engine alike. Move-only: it owns the policy and the delay model, which
/// engines clone once per worker (clone()); a replication uses them in place.
struct ScenarioConfig {
  markov::MultiNodeParams params;
  std::vector<std::size_t> workloads;
  core::PolicyPtr policy;
  /// Bundle-delay law, sampled in place for every bundle (the laws are
  /// immutable); when null, ExponentialBundleDelay(params.per_task_delay_mean)
  /// — the analytical model — is used.
  net::TransferDelayModelPtr delay_model;
  /// Master switch for churn (false reproduces the paper's no-failure runs
  /// without touching the per-node rates).
  bool churn_enabled = true;
  /// Bitmask of nodes that start down (bit i); all-up by default. The mask
  /// addresses nodes 0..63; on larger systems every node past bit 63 starts
  /// up — use `schedule` to take one of those down. Query through
  /// starts_down(), which encodes that rule.
  std::uint64_t initially_down = 0;

  /// Whether node `i` starts down under initially_down (false for i >= 64:
  /// the mask cannot address those nodes, and a raw shift would be UB).
  [[nodiscard]] bool starts_down(std::size_t i) const noexcept {
    return i < 64 && ((initially_down >> i) & 1u) != 0;
  }
  /// When > 0, the policy's on_periodic() hook fires every this many seconds
  /// (for PeriodicRebalancePolicy and similar extensions).
  double rebalance_period = 0.0;
  /// Optional environment CTMC (states == 0 disables): its state multiplies
  /// every node's failure hazard and selects MMPP arrival rates.
  env::EnvironmentSpec environment;
  /// Optional external arrival stream (process == kNone disables).
  env::ArrivalSpec arrivals;
  /// Optional deterministic up/down timelines. A scheduled node's churn is
  /// driven by the schedule alone (its stochastic FailureProcess is not
  /// created, and it must not appear in initially_down).
  env::Schedule schedule;
  /// Exchange-graph restriction. The default (complete) takes the historical
  /// full-mesh path untouched; any other kind restricts every policy's
  /// SystemView — and its transfer directives — to each node's neighbourhood,
  /// and topology.churn_drop > 0 swaps the active edge set on every
  /// environment transition (requires a configured environment).
  net::TopologySpec topology;
  /// Steady-state window parameters (consumed by mc::run_steady only).
  SteadySpec steady;
  /// The testbed's communication layer (consumed by the testbed engine only;
  /// the abstract MC's bundles take delay_model and its policies see exact
  /// state, so these are inert there).
  double transfer_setup_shift = 0.005;  ///< TCP setup; the Fig. 2 pdf shift (s)
  double exchange_period = 1.0;         ///< UDP sync period (s)
  double state_latency = 1e-3;          ///< one-way state-packet latency (s)
  double state_loss_probability = 0.0;  ///< i.i.d. state-packet loss (1 = blackout)
  /// Optional bursty k-state Markov channel for the state plane (states == 0
  /// keeps the i.i.d. state_loss_probability above); testbed engine only.
  net::ChannelSpec channel;

  /// Deep copy (clones policy and delay model).
  [[nodiscard]] ScenarioConfig clone() const;
};

/// Builds the common two-node config from TwoNodeParams.
[[nodiscard]] ScenarioConfig make_two_node_scenario(const markov::TwoNodeParams& params,
                                                    std::size_t m0, std::size_t m1,
                                                    core::PolicyPtr policy);

/// Everything observed in one replication. Since the per-task-record refactor
/// the result carries per-task latency observations, not only the scalar
/// completion time: every completed task contributes its sojourn (completion -
/// system arrival).
struct RunResult {
  double completion_time = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t bundles_sent = 0;
  std::uint64_t tasks_moved = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_arrived = 0;     ///< externally injected tasks (open arrivals)
  std::uint64_t env_transitions = 0;   ///< environment CTMC jumps during the run
  std::uint64_t state_packets_lost = 0;  ///< state-plane drops (testbed engine)
  /// Policy hook calls, one per kPolicyDecision trace record.
  std::uint64_t policy_decisions = 0;
  /// Policy hook calls that returned no directive (trace records of count 0).
  std::uint64_t policy_decisions_empty = 0;
  /// Per-task time in system over all completed tasks (the steady engine's
  /// Little's-law mean_queue_length reads it).
  stoch::RunningStats sojourn;
  /// Age (now - peer packet timestamp) of every peer entry consulted at every
  /// policy decision instant — the staleness the state plane imposes on
  /// distributed decisions (testbed engine; empty on the abstract MC path).
  stoch::RunningStats state_age;
};

/// Optional per-run observability: the structured event log, from which
/// obs::queue_lengths_at replays the queues (Fig. 4). Recording consumes zero
/// RNG draws and leaves every statistic bit-identical to an untraced run.
struct RunTrace {
  /// Unread. Kept only because the benchmark harness (perfbench/lbbench.cpp)
  /// assigns it.
  bool record_queues = true;
  /// Typed 32-byte records: task arrive/service-start/complete, transfer
  /// send/deliver, fail/recover, env transitions, channel-state changes,
  /// state-packet loss, policy decisions, external injections (see obs::Kind).
  obs::TraceBuffer events;
};

/// Non-owning observability sinks threaded through the engines (all three
/// layers optional and mutually independent). Everything reached through
/// these pointers consumes zero RNG draws and is bit-identity-neutral.
struct ObsSinks {
  /// Merged structured trace: engines record each replication into its own
  /// buffer and fold them in replication order behind a kRepBegin marker
  /// (payload = replication index), so the file is thread-count-independent.
  obs::TraceBuffer* trace = nullptr;
  /// Merged metrics: per-replication updates folded in replication order plus
  /// driver-level counters/gauges (see docs/ARCHITECTURE.md).
  obs::Registry* metrics = nullptr;
  /// Aggregated per-phase wall-time breakdown across all replications.
  obs::PhaseProfile* profile = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return trace != nullptr || metrics != nullptr || profile != nullptr;
  }
};

/// Runs one replication. `seed` is the experiment master seed; `replication`
/// selects disjoint RNG streams, so results are independent across
/// replications and identical regardless of threading.
[[nodiscard]] RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                                     std::uint64_t replication, RunTrace* trace = nullptr);

/// Steady-state extension hooks threaded through the replication wiring
/// (consumed by mc::run_steady; everything else leaves this defaulted). With
/// target_completions > 0 the run is an infinite-horizon observation window:
/// unbounded arrival streams are admitted and the replication stops at the
/// target instead of draining the queue.
struct SteadyProbe {
  /// Stop once this many tasks have completed (0 = finite drain-the-queue run).
  std::size_t target_completions = 0;
  /// When non-null, receives every completed task's sojourn time in
  /// completion order — the within-run series the warm-up detector and
  /// batch-means estimator consume.
  std::vector<double>* sojourn_log = nullptr;
};

/// A per-worker replication workspace: the nodes, churn drivers, RNG-stream
/// and hot-state arrays, in-flight bundle slots and task-block pool that a
/// replication wires up, kept between replications so a worker's loop reuses
/// their capacity instead of reallocating it. It keeps capacity, never values:
/// run_scenario resets it at the start of every replication and re-derives
/// everything from that replication's config, so one workspace serves any
/// sequence of configs (a smaller n after a larger one, the VR target and its
/// surrogate in turn), and a replication that threw leaves it usable. One per
/// worker, like the worker's des::Simulator; see docs/ARCHITECTURE.md,
/// "Replication workspace".
class ReplicationWorkspace {
 public:
  ReplicationWorkspace();
  ~ReplicationWorkspace();
  ReplicationWorkspace(const ReplicationWorkspace&) = delete;
  ReplicationWorkspace& operator=(const ReplicationWorkspace&) = delete;

  struct State;  // defined with run_scenario
  [[nodiscard]] State& state() noexcept { return *state_; }

 private:
  std::unique_ptr<State> state_;
};

/// Estimator-layer knobs threaded into the replication wiring (consumed by
/// the MC engine's variance-reduction modes; the defaults reproduce the
/// historical run bit-for-bit).
struct RunControls {
  /// Runs the antithetic twin: the same (seed, replication) stream layout,
  /// with every uniform01-derived draw of every stream mirrored to 1 - U (see
  /// stoch::RngStream::set_antithetic). Pairing (replication r plain,
  /// replication r mirrored) yields negatively correlated twins.
  bool antithetic = false;
  /// When non-null, the replication's setup and event-loop wall times are
  /// accumulated here (the stats fold is timed by the engine). Reads the
  /// monotonic clock only — no RNG draws, no behavioural change.
  obs::PhaseProfile* profile = nullptr;
  /// When non-null, build_topology_states(config) for the replication's
  /// config, built once by the caller and shared read-only by every
  /// replication and worker; null builds the graphs inside the replication.
  const std::vector<net::Topology>* topology_states = nullptr;
  /// When non-null, the caller's per-worker workspace, reset and reused by
  /// this replication; null builds a fresh one for this call alone.
  ReplicationWorkspace* workspace = nullptr;
};

/// The scenario's exchange graphs: empty for a complete topology, the one
/// base graph for a static one, and under edge churn the churned copy for each
/// environment state (index = state). A pure function of the topology spec,
/// the node count and the environment's state count, so one build serves
/// every replication of a run.
[[nodiscard]] std::vector<net::Topology> build_topology_states(const ScenarioConfig& config);

/// Simulator-reusing form of run_scenario, which the fresh-simulator form
/// forwards to: `sim` is reset and driven in place, so its pooled event slab
/// (and heap capacity) is recycled across a replication loop, with results
/// bit-identical to the fresh-simulator form. A probe with
/// target_completions > 0 is the only path that accepts an unbounded arrival
/// stream.
[[nodiscard]] RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                                     std::uint64_t replication, RunTrace* trace,
                                     des::Simulator& sim, const SteadyProbe& probe = {},
                                     const RunControls& controls = {});

/// Throws std::invalid_argument unless the testbed can run `config`. It needs
/// a policy, and an environment behind a channel coupled to one. It emulates
/// no periodic round, delay model, arrivals, schedule or topology: each needs
/// semantics of its own on a node-local view, so rather than silently drop
/// one, the message names every one the config sets (mc is the engine for
/// those keys). The one statement of what the testbed emulates: the testbed
/// run_monte_carlo, testbed::run_realization and run_testbed_replication all
/// call it.
void check_emulable(const ScenarioConfig& config);

/// One replication of the emulated testbed (testbed::run_realization): the
/// replication core run_scenario runs, with the testbed's three seams in
/// place of the model's.
/// - Service: each node's tasks get Exp(1) sizes at injection, drawn on the
///   node's stream i, and a node serves a task in size / lambda_d.
/// - Bundle delays: `network` samples them (its data law on its data stream,
///   stream 2n, scaled by its state channel's data multiplier).
/// - Decisions: node i decides on its own mc::NodeLocalView of a state board
///   that `network`'s state plane (stream 2n + 1) refreshes every
///   config.exchange_period seconds, and ships only its own tasks. An
///   initially-down node is down before the t = 0 decisions and fires no
///   hook, and every decision first pools its peer entries' ages into
///   RunResult::state_age.
/// The environment, when configured, draws on stream 2n + 2 and, with
/// config.channel.env_coupled, floors the channel. `policy` runs in
/// place (config.policy is only checked, never run); `network` is re-seated
/// on `sim` and this replication's streams. A config that check_emulable
/// refuses throws.
[[nodiscard]] RunResult run_testbed_replication(const ScenarioConfig& config,
                                                core::LoadBalancingPolicy& policy,
                                                net::Network& network, std::uint64_t seed,
                                                std::uint64_t replication, RunTrace* trace,
                                                des::Simulator& sim,
                                                const RunControls& controls);

}  // namespace lbsim::mc
