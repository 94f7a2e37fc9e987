#include "mc/scenario.hpp"

#include <chrono>
#include <deque>
#include <optional>

#include "app/workload.hpp"
#include "node/block_pool.hpp"
#include "node/compute_element.hpp"
#include "node/failure_process.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace lbsim::mc {
namespace {

/// SystemView over the live CEs' structure-of-arrays hot state: queue lengths
/// and up flags are read from two packed arrays the CEs mirror on every
/// transition, so a policy scan over n nodes walks contiguous memory instead
/// of chasing one heap allocation per node. The rate table is the
/// workspace's, re-assigned every replication. When a (non-complete) topology
/// is active the view restricts each node's visible peers to its current
/// adjacency; the pointer is swapped on environment transitions under edge
/// churn.
class LiveView final : public core::SystemView {
 public:
  LiveView(const markov::MultiNodeParams& params, const core::RateTable& rates,
           const std::vector<std::uint32_t>& queue_len, const std::vector<std::uint8_t>& up)
      : params_(params), rates_(rates), queue_len_(queue_len), up_(up) {}

  [[nodiscard]] std::size_t node_count() const override { return queue_len_.size(); }
  [[nodiscard]] std::size_t queue_length(int n) const override {
    return queue_len_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] bool is_up(int n) const override {
    return up_.at(static_cast<std::size_t>(n)) != 0;
  }
  [[nodiscard]] std::span<const markov::NodeParams> params() const override {
    return params_.nodes;
  }
  [[nodiscard]] double per_task_delay_mean() const override {
    return params_.per_task_delay_mean;
  }
  [[nodiscard]] const core::RateTable& rates() const override { return rates_; }
  [[nodiscard]] std::size_t neighbor_count(int n) const override {
    if (topology_ == nullptr) return core::SystemView::neighbor_count(n);
    return topology_->degree(static_cast<std::size_t>(n));
  }
  [[nodiscard]] int neighbor(int n, std::size_t k) const override {
    if (topology_ == nullptr) return core::SystemView::neighbor(n, k);
    return static_cast<int>(topology_->neighbor(static_cast<std::size_t>(n), k));
  }

  void set_topology(const net::Topology* topology) noexcept { topology_ = topology; }
  [[nodiscard]] const net::Topology* topology() const noexcept { return topology_; }

 private:
  const markov::MultiNodeParams& params_;
  const core::RateTable& rates_;
  const std::vector<std::uint32_t>& queue_len_;
  const std::vector<std::uint8_t>& up_;
  const net::Topology* topology_ = nullptr;  // null = complete (historical path)
};

void validate_config(const ScenarioConfig& config, bool allow_unbounded) {
  markov::validate(config.params);
  const std::size_t n = config.params.nodes.size();
  LBSIM_REQUIRE(n >= 2, "scenario needs >= 2 nodes");
  LBSIM_REQUIRE(!config.arrivals.unbounded || allow_unbounded,
                "unbounded arrival streams leave completion time undefined; they are "
                "admitted only through the steady-state engine (mc::run_steady)");
  LBSIM_REQUIRE(config.workloads.size() == n,
                "workloads has " << config.workloads.size() << " entries for " << n
                                 << " nodes");
  LBSIM_REQUIRE(config.policy != nullptr, "scenario needs a policy");
  LBSIM_REQUIRE(n >= 64 || config.initially_down < (std::uint64_t{1} << n),
                "initially_down mask");
  env::validate(config.environment);
  env::validate(config.arrivals, n,
                config.environment.enabled() ? &config.environment : nullptr);
  env::validate(config.schedule, n);
  LBSIM_REQUIRE(!config.topology.dynamic() ||
                    (!config.topology.complete() && config.environment.enabled()),
                "topology edge churn (churn_drop > 0) needs a non-complete topology and "
                "a configured environment CTMC to drive it");
  for (std::size_t i = 0; i < n; ++i) {
    LBSIM_REQUIRE(!config.schedule.scheduled(i) || !config.starts_down(i),
                  "node " << i << " has both a schedule clause and an initially_down bit; "
                             "use down@0-... in the schedule instead");
  }
}

/// Completion bookkeeping shared by all per-node handlers: the handlers
/// capture one pointer to this, so their std::functions stay inside the
/// small-object buffer (no heap allocation per node per replication). Every
/// completed task carries its system arrival time, so the tracker also
/// accumulates the run's sojourn observations.
struct CompletionTracker {
  des::Simulator* sim = nullptr;
  RunResult* result = nullptr;
  std::size_t remaining = 0;
  /// False while an arrival stream still owes epochs: the run is complete
  /// only once everything injected so far is processed AND nothing more will
  /// arrive.
  bool injection_done = true;
  bool done = false;
  double completion_time = 0.0;
  /// Steady-state mode: stop at this many completions instead of draining.
  std::size_t target_completions = 0;
  std::uint64_t completed = 0;
  std::vector<double>* sojourn_log = nullptr;

  void maybe_finish() {
    if (remaining == 0 && injection_done) {
      done = true;
      completion_time = sim->now();
    }
  }
  void on_complete(const node::Task& task) {
    LBSIM_CHECK(remaining > 0, "completed more tasks than injected");
    --remaining;
    ++completed;
    const double now = sim->now();
    const double sojourn = now - task.arrival_time;
    result->sojourn.add(sojourn);
    if (sojourn_log != nullptr) sojourn_log->push_back(sojourn);
    if (target_completions > 0 && completed >= target_completions) {
      done = true;
      completion_time = now;
      return;
    }
    maybe_finish();
  }
};

}  // namespace

/// The workspace's reusable parts. Containers only grow; reset() returns every
/// queued or in-flight task's block to the pool and frees every bundle slot,
/// and run_scenario re-seats the first n node slots.
struct ReplicationWorkspace::State {
  /// One node: its CE, its churn driver and the churn laws the driver
  /// borrows. Never moved (the CE and the driver hold references into each
  /// other and into the pool).
  struct NodeSlot {
    explicit NodeSlot(node::BlockPool& pool) : ce(pool), churn(ce) {}
    node::ComputeElement ce;
    node::FailureProcess churn;
    std::optional<stoch::Exponential> ttf;
    std::optional<stoch::Exponential> ttr;
  };

  /// A bundle in flight; its delivery event captures the slot's index.
  struct BundleSlot {
    explicit BundleSlot(node::BlockPool& pool) : tasks(pool) {}
    int from = 0;
    int to = 0;
    node::TaskChain tasks;
    std::uint32_t next_free = 0;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Declared first, so it outlives every queue that draws from it.
  node::BlockPool pool;
  std::deque<NodeSlot> nodes;
  std::deque<BundleSlot> bundles;
  std::uint32_t free_bundle = kNoSlot;
  /// [0, n) service streams, [n, 2n) churn streams.
  std::vector<stoch::RngStream> rngs;
  std::vector<std::uint32_t> hot_queue_len;
  std::vector<std::uint8_t> hot_up;
  core::RateTable rates;

  void reset(std::size_t n) {
    while (nodes.size() < n) nodes.emplace_back(pool);
    for (std::size_t i = n; i < nodes.size(); ++i) nodes[i].ce.clear_queue();
    free_bundle = kNoSlot;
    for (std::size_t b = bundles.size(); b-- > 0;) {
      bundles[b].tasks.clear();
      bundles[b].next_free = free_bundle;
      free_bundle = static_cast<std::uint32_t>(b);
    }
  }

  std::uint32_t acquire_bundle() {
    if (free_bundle == kNoSlot) {
      bundles.emplace_back(pool);
      return static_cast<std::uint32_t>(bundles.size() - 1);
    }
    const std::uint32_t slot = free_bundle;
    free_bundle = bundles[slot].next_free;
    return slot;
  }

  void release_bundle(std::uint32_t slot) noexcept {
    bundles[slot].next_free = free_bundle;
    free_bundle = slot;
  }
};

ReplicationWorkspace::ReplicationWorkspace() : state_(std::make_unique<State>()) {}
ReplicationWorkspace::~ReplicationWorkspace() = default;

namespace {

using ProfileClock = std::chrono::steady_clock;

double seconds_since(ProfileClock::time_point begin) {
  return std::chrono::duration<double>(ProfileClock::now() - begin).count();
}

/// One replication's wiring. Every callback it hands out (the kernel's
/// delivery and tick events, the CEs' completion handlers, the churn,
/// schedule, environment and arrival hooks) captures a pointer to this, plus
/// at most an index, so each stays in its small-object buffer.
struct Replication {
  Replication(const ScenarioConfig& config, ReplicationWorkspace::State& ws,
              des::Simulator& sim, RunTrace* trace, obs::PhaseProfile* profile,
              const net::TransferDelayModel& delay, stoch::RngStream& net_rng)
      : config(config),
        ws(ws),
        sim(sim),
        trace(trace),
        profile(profile),
        policy(*config.policy),
        delay(delay),
        net_rng(net_rng),
        view(config.params, ws.rates, ws.hot_queue_len, ws.hot_up) {}

  const ScenarioConfig& config;
  ReplicationWorkspace::State& ws;
  des::Simulator& sim;
  RunTrace* trace;
  obs::PhaseProfile* profile;
  core::LoadBalancingPolicy& policy;
  const net::TransferDelayModel& delay;
  stoch::RngStream& net_rng;
  LiveView view;
  CompletionTracker tracker;
  RunResult result;
  std::uint64_t next_id = 1;
  env::Environment* environment = nullptr;
  env::ArrivalProcess* arrivals = nullptr;
  /// The per-state graphs under edge churn; null otherwise.
  const std::vector<net::Topology>* churned_topologies = nullptr;

  [[nodiscard]] node::ComputeElement& ce(std::size_t i) { return ws.nodes[i].ce; }

  /// Runs one policy hook (timed into policy_s when profiled), counts and,
  /// when traced, records the decision, and carries it out.
  template <typename Hook>
  void decide(int node_id, Hook&& hook) {
    ProfileClock::time_point begin{};
    if (profile != nullptr) begin = ProfileClock::now();
    const std::vector<core::TransferDirective> directives = hook();
    if (profile != nullptr) profile->policy_s += seconds_since(begin);
    ++result.policy_decisions;
    if (directives.empty()) ++result.policy_decisions_empty;
    if (trace != nullptr) {
      trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, node_id, -1,
                         static_cast<std::uint32_t>(directives.size()));
    }
    execute(directives);
  }

  void execute(const std::vector<core::TransferDirective>& directives) {
    const std::size_t n = config.params.nodes.size();
    for (const core::TransferDirective& d : directives) {
      LBSIM_REQUIRE(d.from >= 0 && static_cast<std::size_t>(d.from) < n, "from=" << d.from);
      LBSIM_REQUIRE(d.to >= 0 && static_cast<std::size_t>(d.to) < n && d.to != d.from,
                    "to=" << d.to);
      LBSIM_REQUIRE(view.topology() == nullptr ||
                        view.topology()->adjacent(static_cast<std::size_t>(d.from),
                                                  static_cast<std::size_t>(d.to)),
                    "directive " << d.from << "->" << d.to
                                 << " crosses a non-edge of the active topology");
      node::ComputeElement& source = ce(static_cast<std::size_t>(d.from));
      if (d.count == 0 || source.queue_length() == 0) continue;
      const std::uint32_t slot = ws.acquire_bundle();
      ReplicationWorkspace::State::BundleSlot& bundle = ws.bundles[slot];
      bundle.from = d.from;
      bundle.to = d.to;
      const std::size_t moved = source.extract_tasks(d.count, bundle.tasks);
      result.bundles_sent += 1;
      result.tasks_moved += moved;
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kTransferSend, d.from, d.to,
                           static_cast<std::uint32_t>(moved));
      }
      sim.schedule_in(delay.sample(moved, net_rng), [rep = this, slot] { rep->deliver(slot); });
    }
  }

  void deliver(std::uint32_t slot) {
    ReplicationWorkspace::State::BundleSlot& bundle = ws.bundles[slot];
    if (trace != nullptr) {
      trace->events.emit(sim.now(), obs::Kind::kTransferDeliver, bundle.from, bundle.to,
                         static_cast<std::uint32_t>(bundle.tasks.size()));
    }
    ce(static_cast<std::size_t>(bundle.to)).enqueue_batch(bundle.tasks);
    ws.release_bundle(slot);
  }

  void on_failure(int node_id) {
    ++result.failures;
    if (trace != nullptr) trace->events.emit(sim.now(), obs::Kind::kFail, node_id);
    decide(node_id, [&] { return policy.on_failure(node_id, view); });
  }

  void on_recovery(int node_id) {
    ++result.recoveries;
    if (trace != nullptr) trace->events.emit(sim.now(), obs::Kind::kRecover, node_id);
    decide(node_id, [&] { return policy.on_recovery(node_id, view); });
  }

  void on_schedule(std::size_t i, bool down) {
    node::ComputeElement& node = ce(i);
    if (down) {
      node.fail();
      on_failure(node.id());
    } else {
      node.recover();
      on_recovery(node.id());
    }
  }

  /// The periodic round timer; it stops rescheduling once the run is done.
  void tick() {
    if (tracker.done) return;
    decide(-1, [&] { return policy.on_periodic(view); });
    sim.schedule_in(config.rebalance_period, [rep = this] { rep->tick(); });
  }

  void on_arrival(std::size_t node_index, std::size_t tasks, bool last) {
    tracker.remaining += tasks;
    result.tasks_arrived += tasks;
    ce(node_index).enqueue_units(tasks, next_id);
    next_id += tasks;
    if (trace != nullptr) {
      trace->events.emit(sim.now(), obs::Kind::kInject, static_cast<std::int32_t>(node_index),
                         -1, static_cast<std::uint32_t>(tasks));
    }
    if (config.arrivals.rebalance) {
      // Section 5's "LB episode at every external arrival": replay the
      // policy's initial balancing decision against the live queues.
      decide(static_cast<int>(node_index), [&] { return policy.on_start(view); });
    }
    if (last) {
      tracker.injection_done = true;
      tracker.maybe_finish();
    }
  }

  /// Sets every churn driver's hazard multiplier (a driver that never starts
  /// ignores it).
  void set_hazard_multiplier(double mult) {
    const std::size_t n = config.params.nodes.size();
    for (std::size_t i = 0; i < n; ++i) ws.nodes[i].churn.set_hazard_multiplier(mult);
  }

  /// Environment transition: re-arm every failure process at the new state's
  /// hazard, re-draw the MMPP gap and, under edge churn, swap the graph. (The
  /// kEnvTransition record is emitted by the Environment itself, before this
  /// runs.)
  void on_environment(std::size_t to) {
    set_hazard_multiplier(environment->spec().failure_mult[to]);
    if (arrivals != nullptr) arrivals->on_environment_transition();
    if (churned_topologies != nullptr) view.set_topology(&(*churned_topologies)[to]);
  }
};

}  // namespace

std::vector<net::Topology> build_topology_states(const ScenarioConfig& config) {
  std::vector<net::Topology> states;
  if (config.topology.complete()) return states;
  net::Topology base = net::Topology::build(config.topology, config.params.nodes.size());
  if (!config.topology.dynamic()) {
    states.push_back(std::move(base));
    return states;
  }
  const std::size_t k_states = config.environment.states;
  states.reserve(k_states);
  for (std::size_t s = 0; s < k_states; ++s) {
    const double drop = k_states > 1 ? config.topology.churn_drop * static_cast<double>(s) /
                                           static_cast<double>(k_states - 1)
                                     : 0.0;
    states.push_back(base.with_edge_churn(drop, config.topology.churn_spare,
                                          config.topology.seed, s));
  }
  return states;
}

ScenarioConfig ScenarioConfig::clone() const {
  ScenarioConfig copy;
  copy.params = params;
  copy.workloads = workloads;
  copy.policy = policy ? policy->clone() : nullptr;
  copy.delay_model = delay_model ? delay_model->clone() : nullptr;
  copy.churn_enabled = churn_enabled;
  copy.initially_down = initially_down;
  copy.rebalance_period = rebalance_period;
  copy.environment = environment;
  copy.arrivals = arrivals;
  copy.schedule = schedule;
  copy.steady = steady;
  copy.topology = topology;
  copy.exchange_period = exchange_period;
  copy.exchange_latency = exchange_latency;
  copy.exchange_loss = exchange_loss;
  copy.state_channel = state_channel;
  return copy;
}

ScenarioConfig make_two_node_scenario(const markov::TwoNodeParams& params, std::size_t m0,
                                      std::size_t m1, core::PolicyPtr policy) {
  ScenarioConfig config;
  config.params.nodes = {params.nodes[0], params.nodes[1]};
  config.params.per_task_delay_mean = params.per_task_delay_mean;
  config.workloads = {m0, m1};
  config.policy = std::move(policy);
  return config;
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace) {
  des::Simulator sim;
  return run_scenario(config, seed, replication, trace, sim);
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace, des::Simulator& sim) {
  return run_scenario(config, seed, replication, trace, sim, SteadyProbe{});
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace, des::Simulator& sim,
                       const SteadyProbe& probe) {
  return run_scenario(config, seed, replication, trace, sim, probe, RunControls{});
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace, des::Simulator& sim,
                       const SteadyProbe& probe, const RunControls& controls) {
  // Phase profiling reads the monotonic clock only (never the RNG streams):
  // everything before the event loop is "setup" (its stream-construction part
  // is also "streams"), the loop itself is "loop", and the policy hooks inside
  // either are also "policy".
  ProfileClock::time_point profile_begin{};
  if (controls.profile != nullptr) profile_begin = ProfileClock::now();

  validate_config(config, /*allow_unbounded=*/probe.target_completions > 0);
  const std::size_t n = config.params.nodes.size();
  sim.reset();  // recycles the pooled event slab when the caller reuses `sim`
  std::optional<ReplicationWorkspace> own_workspace;
  ReplicationWorkspace::State& ws =
      (controls.workspace != nullptr ? *controls.workspace : own_workspace.emplace()).state();
  ws.reset(n);

  // Disjoint, deterministic RNG streams per (replication, role, node):
  // results do not depend on thread scheduling. Stream ids keep the
  // historical layout ([0, n) service, [n, 2n) churn, 2n network); the
  // environment and arrival streams are appended only when configured, so
  // scenarios without them stay bit-for-bit identical to earlier releases.
  const bool has_environment = config.environment.enabled();
  const bool has_arrivals = config.arrivals.active();
  const bool has_policy_rng = config.policy->needs_rng();
  const std::uint64_t streams_per_run = 2 * static_cast<std::uint64_t>(n) + 1 +
                                        (has_environment ? 1 : 0) + (has_arrivals ? 1 : 0) +
                                        (has_policy_rng ? 1 : 0);
  const std::uint64_t base = replication * streams_per_run;
  ProfileClock::time_point profile_streams{};
  if (controls.profile != nullptr) profile_streams = ProfileClock::now();
  std::vector<stoch::RngStream>& rngs = ws.rngs;
  rngs.clear();
  rngs.reserve(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) rngs.emplace_back(seed, base + i);
  stoch::RngStream net_rng(seed, base + 2 * n);
  // The env and arrival streams exist only when their process does, because
  // the stream layout is load-bearing: reserving their ids unconditionally
  // would move every replication's base and with it every historical result.
  std::optional<stoch::RngStream> env_rng;
  if (has_environment) env_rng.emplace(seed, base + 2 * n + 1);
  std::optional<stoch::RngStream> arrival_rng;
  if (has_arrivals) {
    arrival_rng.emplace(seed, base + 2 * n + 1 + (has_environment ? 1 : 0));
  }
  // Randomised policies (RandomProbePolicy) draw from their own appended
  // stream, re-bound every replication; deterministic policies leave the
  // stream layout — and therefore every historical result — untouched.
  std::optional<stoch::RngStream> policy_rng;
  if (has_policy_rng) {
    policy_rng.emplace(seed, base + 2 * n + 1 + (has_environment ? 1 : 0) +
                                 (has_arrivals ? 1 : 0));
    config.policy->bind_rng(&*policy_rng);
  }
  if (controls.antithetic) {
    // The twin run: identical stream ids and draw counts, every
    // uniform01-derived variate mirrored. Applied uniformly so the coupling
    // covers service, churn, network, environment and arrival randomness.
    for (stoch::RngStream& rng : rngs) rng.set_antithetic(true);
    net_rng.set_antithetic(true);
    if (env_rng) env_rng->set_antithetic(true);
    if (arrival_rng) arrival_rng->set_antithetic(true);
    if (policy_rng) policy_rng->set_antithetic(true);
  }
  if (controls.profile != nullptr) {
    controls.profile->streams_s += seconds_since(profile_streams);
  }

  // Bundle delays are drawn from the configured law in place (laws are
  // immutable), on the network stream.
  const net::ExponentialBundleDelay default_delay(config.params.per_task_delay_mean);
  const net::TransferDelayModel& delay =
      config.delay_model ? *config.delay_model
                         : static_cast<const net::TransferDelayModel&>(default_delay);
  Replication rep(config, ws, sim, trace, controls.profile, delay, net_rng);

  // --- nodes, re-seated on this replication's kernel and streams ---
  for (std::size_t i = 0; i < n; ++i) {
    rep.ce(i).reset(sim, static_cast<int>(i),
                    app::exponential_service(config.params.nodes[i].lambda_d), rngs[i]);
  }

  // --- structure-of-arrays hot state: the per-node queue lengths and up
  //     flags every policy scan touches live in two packed arrays owned by
  //     the workspace and mirrored by each CE on every transition (LiveView
  //     reads these) ---
  ws.hot_queue_len.assign(n, 0);
  ws.hot_up.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    rep.ce(i).bind_hot_cells(&ws.hot_queue_len[i], &ws.hot_up[i]);
  }
  ws.rates.assign(config.params.nodes);  // the view's pricing constants

  if (trace != nullptr) {
    if (trace->record_queues) {
      trace->queue_lengths.assign(n, des::TimeSeries{});
      for (std::size_t i = 0; i < n; ++i) rep.ce(i).set_queue_trace(&trace->queue_lengths[i]);
    }
    for (std::size_t i = 0; i < n; ++i) rep.ce(i).set_event_trace(&trace->events);
  }

  // --- completion tracking ---
  CompletionTracker& tracker = rep.tracker;
  tracker.sim = &sim;
  tracker.result = &rep.result;
  tracker.target_completions = probe.target_completions;
  tracker.sojourn_log = probe.sojourn_log;
  for (const std::size_t m : config.workloads) tracker.remaining += m;
  tracker.injection_done = !has_arrivals;
  tracker.maybe_finish();
  for (std::size_t i = 0; i < n; ++i) {
    rep.ce(i).set_completion_handler(
        [tracker = &tracker](const node::Task& task) { tracker->on_complete(task); });
  }

  // --- initial workloads (unit tasks; the abstract model draws service times
  //     from Exp(lambda_d) regardless of size) ---
  for (std::size_t i = 0; i < n; ++i) {
    rep.ce(i).enqueue_units(config.workloads[i], rep.next_id);
    rep.next_id += config.workloads[i];
  }

  // --- topology (non-complete graphs restrict every policy's neighbourhood;
  //     under edge churn the environment swaps the active graph among the
  //     per-state ones). Engines hand in one prebuilt set. ---
  std::vector<net::Topology> own_topo_states;
  const std::vector<net::Topology>* topo_states = controls.topology_states;
  if (topo_states == nullptr) {
    own_topo_states = build_topology_states(config);
    topo_states = &own_topo_states;
  }
  LBSIM_REQUIRE(topo_states->empty() == config.topology.complete() &&
                    (topo_states->empty() || topo_states->front().node_count() == n),
                "prebuilt topology states do not match the scenario");
  if (!topo_states->empty()) {
    const std::size_t s0 =
        config.topology.dynamic() ? config.environment.initial_state : 0;
    rep.view.set_topology(&(*topo_states)[s0]);
  }
  if (config.topology.dynamic()) rep.churned_topologies = topo_states;

  // --- churn: scheduled nodes swap the alternating-renewal driver for their
  //     deterministic timeline; both feed the same hooks, so policies see an
  //     identical event interface. (The schedule drivers are sized lazily:
  //     unscheduled scenarios skip the allocation.) ---
  std::vector<std::unique_ptr<env::ScheduleDriver>> schedules;
  if (!config.schedule.empty()) schedules.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ReplicationWorkspace::State::NodeSlot& slot = ws.nodes[i];
    slot.ttf.reset();
    slot.ttr.reset();
    if (config.schedule.scheduled(i)) {
      schedules[i] = std::make_unique<env::ScheduleDriver>(sim, config.schedule.per_node[i]);
      schedules[i]->set_handler([r = &rep, i](bool down) { r->on_schedule(i, down); });
      slot.churn.reset(sim, nullptr, nullptr, rngs[n + i]);  // never started
      continue;
    }
    const markov::NodeParams& np = config.params.nodes[i];
    if (config.churn_enabled && np.lambda_f > 0.0) {
      slot.ttf.emplace(np.lambda_f);
      slot.ttr.emplace(np.lambda_r);
    } else if (config.starts_down(i)) {
      LBSIM_REQUIRE(np.lambda_r > 0.0, "initially-down node " << i << " cannot recover");
      slot.ttr.emplace(np.lambda_r);
    }
    slot.churn.reset(sim, slot.ttf ? &*slot.ttf : nullptr, slot.ttr ? &*slot.ttr : nullptr,
                     rngs[n + i]);
    slot.churn.set_failure_handler([r = &rep](int node_id) { r->on_failure(node_id); });
    slot.churn.set_recovery_handler([r = &rep](int node_id) { r->on_recovery(node_id); });
  }

  // --- environment (common-shock CTMC modulating every failure hazard) ---
  std::optional<env::Environment> environment;
  if (has_environment) {
    environment.emplace(sim, config.environment, *env_rng);
    if (trace != nullptr) environment->set_event_trace(&trace->events);
    rep.environment = &*environment;
  }

  // --- external arrivals (open-system task injection) ---
  std::optional<env::ArrivalProcess> arrivals;
  if (has_arrivals) {
    arrivals.emplace(sim, config.arrivals, n, environment ? &*environment : nullptr,
                     *arrival_rng);
    arrivals->set_sink([r = &rep](std::size_t node, std::size_t tasks, bool last) {
      r->on_arrival(node, tasks, last);
    });
    rep.arrivals = &*arrivals;
  }

  // Wire the environment's listener once its consumers exist; the initial
  // state's multiplier applies to the very first TTF draws.
  if (environment) {
    environment->set_transition_listener(
        [r = &rep](std::size_t /*from*/, std::size_t to) { r->on_environment(to); });
    rep.set_hazard_multiplier(environment->failure_multiplier());
  }

  // --- t = 0: policy's initial action, then churn starts ---
  rep.decide(-1, [&rep] { return rep.policy.on_start(rep.view); });
  if (config.rebalance_period > 0.0) {
    // Recurring timer for periodic policies; stops mattering once done.
    sim.schedule_in(config.rebalance_period, [r = &rep] { r->tick(); });
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!schedules.empty() && schedules[i] != nullptr) {
      schedules[i]->start();  // fires a down@0 synchronously, like initially_down
      continue;
    }
    const bool can_churn = config.churn_enabled && config.params.nodes[i].lambda_f > 0.0;
    const bool starts_down = config.starts_down(i);
    if (can_churn || starts_down) ws.nodes[i].churn.start(starts_down);
  }
  if (environment) environment->start();
  if (arrivals) arrivals->start();

  ProfileClock::time_point profile_loop{};
  if (controls.profile != nullptr) {
    profile_loop = ProfileClock::now();
    controls.profile->setup_s +=
        std::chrono::duration<double>(profile_loop - profile_begin).count();
  }
  sim.run_while_pending([&tracker] { return tracker.done; });
  if (controls.profile != nullptr) {
    controls.profile->loop_s += seconds_since(profile_loop);
    controls.profile->reps += 1;
    controls.profile->events += sim.executed_events();
  }
  LBSIM_CHECK(tracker.done, "simulation drained its event queue before completing "
                                << tracker.remaining << " tasks"
                                << (tracker.injection_done
                                        ? ""
                                        : " (arrival stream starved: an MMPP state with "
                                          "rate 0 and no environment transitions?)"));

  RunResult& result = rep.result;
  result.completion_time = tracker.completion_time;
  if (environment) result.env_transitions = environment->transitions();
  for (std::size_t i = 0; i < n; ++i) {
    result.tasks_completed += rep.ce(i).stats().tasks_completed;
  }
  return result;
}

}  // namespace lbsim::mc
