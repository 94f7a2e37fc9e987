#include "mc/scenario.hpp"

#include <chrono>
#include <functional>
#include <optional>

#include "app/workload.hpp"
#include "node/compute_element.hpp"
#include "node/failure_process.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace lbsim::mc {
namespace {

/// SystemView over the live CEs' structure-of-arrays hot state: queue lengths
/// and up flags are read from two packed arrays the CEs mirror on every
/// transition, so a policy scan over n nodes walks contiguous memory instead
/// of chasing one heap allocation per node. When a (non-complete) topology is
/// active the view restricts each node's visible peers to its current
/// adjacency; the pointer is swapped on environment transitions under edge
/// churn.
class LiveView final : public core::SystemView {
 public:
  LiveView(const markov::MultiNodeParams& params,
           const std::vector<std::uint32_t>& queue_len, const std::vector<std::uint8_t>& up)
      : params_(params), queue_len_(queue_len), up_(up) {}

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
/// completion carries its per-task record (arrival / first service start), so
/// the tracker also accumulates the run's latency observations.
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
  // is also "streams"), the loop itself is "loop".
  using ProfileClock = std::chrono::steady_clock;
  ProfileClock::time_point profile_begin{};
  if (controls.profile != nullptr) profile_begin = ProfileClock::now();

  validate_config(config, /*allow_unbounded=*/probe.target_completions > 0);
  const std::size_t n = config.params.nodes.size();
  sim.reset();  // recycles the pooled event slab when the caller reuses `sim`

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
  // One backing vector: entries [0, n) are the service streams, [n, 2n) the
  // churn streams (same stream ids as always).
  std::vector<stoch::RngStream> rngs;
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
    controls.profile->streams_s +=
        std::chrono::duration<double>(ProfileClock::now() - profile_streams).count();
  }

  // --- nodes ---
  std::vector<std::unique_ptr<node::ComputeElement>> ces;
  ces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ces.push_back(std::make_unique<node::ComputeElement>(
        sim, static_cast<int>(i),
        app::exponential_service(config.params.nodes[i].lambda_d), rngs[i]));
  }

  // --- structure-of-arrays hot state: the per-node queue lengths and up
  //     flags every policy scan touches live in two packed arrays owned here
  //     and mirrored by each CE on every transition (LiveView reads these) ---
  std::vector<std::uint32_t> hot_queue_len(n, 0);
  std::vector<std::uint8_t> hot_up(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ces[i]->bind_hot_cells(&hot_queue_len[i], &hot_up[i]);
  }

  if (trace != nullptr) {
    if (trace->record_queues) {
      trace->queue_lengths.assign(n, des::TimeSeries{});
      for (std::size_t i = 0; i < n; ++i) {
        ces[i]->set_queue_trace(&trace->queue_lengths[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) ces[i]->set_event_trace(&trace->events);
  }

  // --- links (full mesh, built lazily: an n-node replication only pays for
  //     the directed pairs the policy actually uses, which matters once
  //     n*n outgrows the handful of transfers a run performs) ---
  const net::ExponentialBundleDelay default_delay(config.params.per_task_delay_mean);
  const net::TransferDelayModel& delay_proto =
      config.delay_model ? *config.delay_model
                         : static_cast<const net::TransferDelayModel&>(default_delay);
  std::vector<std::unique_ptr<net::Link>> links(n * n);
  const auto link_for = [&](std::size_t from, std::size_t to) -> net::Link& {
    std::unique_ptr<net::Link>& link = links[from * n + to];
    if (!link) {
      link = std::make_unique<net::Link>(sim, static_cast<int>(from), static_cast<int>(to),
                                         delay_proto.clone(), net_rng);
    }
    return *link;
  };

  // --- completion tracking ---
  RunResult result;
  CompletionTracker tracker;
  tracker.sim = &sim;
  tracker.result = &result;
  tracker.target_completions = probe.target_completions;
  tracker.sojourn_log = probe.sojourn_log;
  for (const std::size_t m : config.workloads) tracker.remaining += m;
  tracker.injection_done = !has_arrivals;
  tracker.maybe_finish();
  for (std::size_t i = 0; i < n; ++i) {
    ces[i]->set_completion_handler(
        [&tracker](const node::Task& task) { tracker.on_complete(task); });
  }

  // --- initial workloads (unit tasks; the abstract model draws service times
  //     from Exp(lambda_d) regardless of size) ---
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < n; ++i) {
    ces[i]->enqueue_units(config.workloads[i], next_id);
    next_id += config.workloads[i];
  }

  // --- topology (non-complete graphs restrict every policy's neighbourhood;
  //     under edge churn the transition listener swaps the active pointer
  //     among the per-state graphs). Engines hand in one prebuilt set. ---
  std::vector<net::Topology> own_topo_states;
  const std::vector<net::Topology>* topo_states = controls.topology_states;
  if (topo_states == nullptr) {
    own_topo_states = build_topology_states(config);
    topo_states = &own_topo_states;
  }
  LBSIM_REQUIRE(topo_states->empty() == config.topology.complete() &&
                    (topo_states->empty() || topo_states->front().node_count() == n),
                "prebuilt topology states do not match the scenario");

  // --- transfer plumbing ---
  LiveView view(config.params, hot_queue_len, hot_up);
  if (!topo_states->empty()) {
    const std::size_t s0 =
        config.topology.dynamic() ? config.environment.initial_state : 0;
    view.set_topology(&(*topo_states)[s0]);
  }
  // The delivery handler captures one pointer to this per-run context so the
  // std::function stays in its small-object buffer (bundle size for the trace
  // is recovered from the transfer itself).
  struct DeliveryCtx {
    std::vector<std::unique_ptr<node::ComputeElement>>* ces;
    RunTrace* trace;
    des::Simulator* sim;
  };
  DeliveryCtx delivery{&ces, trace, &sim};
  const auto execute = [&](const std::vector<core::TransferDirective>& directives) {
    for (const core::TransferDirective& d : directives) {
      LBSIM_REQUIRE(d.from >= 0 && static_cast<std::size_t>(d.from) < n, "from=" << d.from);
      LBSIM_REQUIRE(d.to >= 0 && static_cast<std::size_t>(d.to) < n && d.to != d.from,
                    "to=" << d.to);
      LBSIM_REQUIRE(view.topology() == nullptr ||
                        view.topology()->adjacent(static_cast<std::size_t>(d.from),
                                                  static_cast<std::size_t>(d.to)),
                    "directive " << d.from << "->" << d.to
                                 << " crosses a non-edge of the active topology");
      if (d.count == 0) continue;
      node::TaskBatch batch = ces[static_cast<std::size_t>(d.from)]->extract_tasks(d.count);
      if (batch.empty()) continue;
      result.bundles_sent += 1;
      result.tasks_moved += batch.size();
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kTransferSend, d.from, d.to,
                           static_cast<std::uint32_t>(batch.size()));
      }
      link_for(static_cast<std::size_t>(d.from), static_cast<std::size_t>(d.to))
          .send(std::move(batch), [ctx = &delivery](net::DataTransfer&& xfer) {
            if (ctx->trace != nullptr) {
              ctx->trace->events.emit(ctx->sim->now(), obs::Kind::kTransferDeliver,
                                      xfer.from, xfer.to,
                                      static_cast<std::uint32_t>(xfer.tasks.size()));
            }
            (*ctx->ces)[static_cast<std::size_t>(xfer.to)]->enqueue_batch(
                std::move(xfer.tasks));
          });
    }
  };

  // --- churn ---
  std::vector<std::unique_ptr<node::FailureProcess>> churn;
  churn.reserve(n);
  core::LoadBalancingPolicy& policy = *config.policy;
  /// Shared churn-hook context: per-node handlers capture one pointer, so
  /// their std::functions also stay inside the small-object buffer.
  struct ChurnHooks {
    RunResult* result;
    RunTrace* trace;
    des::Simulator* sim;
    core::LoadBalancingPolicy* policy;
    LiveView* view;
    const decltype(execute)* execute_directives;

    void on_failure(int node_id) const {
      ++result->failures;
      if (trace != nullptr) trace->events.emit(sim->now(), obs::Kind::kFail, node_id);
      const std::vector<core::TransferDirective> directives =
          policy->on_failure(node_id, *view);
      if (trace != nullptr) {
        trace->events.emit(sim->now(), obs::Kind::kPolicyDecision, node_id, -1,
                           static_cast<std::uint32_t>(directives.size()));
      }
      (*execute_directives)(directives);
    }
    void on_recovery(int node_id) const {
      ++result->recoveries;
      if (trace != nullptr) trace->events.emit(sim->now(), obs::Kind::kRecover, node_id);
      const std::vector<core::TransferDirective> directives =
          policy->on_recovery(node_id, *view);
      if (trace != nullptr) {
        trace->events.emit(sim->now(), obs::Kind::kPolicyDecision, node_id, -1,
                           static_cast<std::uint32_t>(directives.size()));
      }
      (*execute_directives)(directives);
    }
  };
  ChurnHooks hooks{&result, trace, &sim, &policy, &view, &execute};
  // Scheduled nodes swap the alternating-renewal driver for their
  // deterministic timeline; both feed the same churn hooks, so policies see
  // an identical event interface. (Sized lazily: unscheduled scenarios skip
  // the allocation on the per-replication path.)
  std::vector<std::unique_ptr<env::ScheduleDriver>> schedules;
  if (!config.schedule.empty()) schedules.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (config.schedule.scheduled(i)) {
      auto driver = std::make_unique<env::ScheduleDriver>(sim, config.schedule.per_node[i]);
      driver->set_handler([ce = ces[i].get(), hooks_ptr = &hooks](bool down) {
        if (down) {
          ce->fail();
          hooks_ptr->on_failure(ce->id());
        } else {
          ce->recover();
          hooks_ptr->on_recovery(ce->id());
        }
      });
      schedules[i] = std::move(driver);
      churn.push_back(nullptr);
      continue;
    }
    const markov::NodeParams& np = config.params.nodes[i];
    stoch::DistributionPtr ttf;
    stoch::DistributionPtr ttr;
    if (config.churn_enabled && np.lambda_f > 0.0) {
      ttf = std::make_unique<stoch::Exponential>(np.lambda_f);
      ttr = std::make_unique<stoch::Exponential>(np.lambda_r);
    } else if (config.starts_down(i)) {
      LBSIM_REQUIRE(np.lambda_r > 0.0, "initially-down node " << i << " cannot recover");
      ttr = std::make_unique<stoch::Exponential>(np.lambda_r);
    }
    auto process = std::make_unique<node::FailureProcess>(sim, *ces[i], std::move(ttf),
                                                          std::move(ttr), rngs[n + i]);
    process->set_failure_handler([&hooks](int node_id) { hooks.on_failure(node_id); });
    process->set_recovery_handler([&hooks](int node_id) { hooks.on_recovery(node_id); });
    churn.push_back(std::move(process));
  }

  // --- environment (common-shock CTMC modulating every failure hazard) ---
  std::optional<env::Environment> environment;
  if (has_environment) {
    environment.emplace(sim, config.environment, *env_rng);
    if (trace != nullptr) environment->set_event_trace(&trace->events);
  }

  // --- external arrivals (open-system task injection) ---
  std::optional<env::ArrivalProcess> arrivals;
  struct ArrivalCtx {
    std::vector<std::unique_ptr<node::ComputeElement>>* ces;
    CompletionTracker* tracker;
    RunResult* result;
    RunTrace* trace;
    des::Simulator* sim;
    core::LoadBalancingPolicy* policy;
    LiveView* view;
    const decltype(execute)* execute_directives;
    std::uint64_t* next_id;
    bool rebalance;
  };
  ArrivalCtx arrival_ctx{&ces,  &tracker, &result,  trace,   &sim,
                         &policy, &view,  &execute, &next_id, config.arrivals.rebalance};
  if (has_arrivals) {
    arrivals.emplace(sim, config.arrivals, n, environment ? &*environment : nullptr,
                     *arrival_rng);
    arrivals->set_sink([ctx = &arrival_ctx](std::size_t node, std::size_t tasks, bool last) {
      ctx->tracker->remaining += tasks;
      ctx->result->tasks_arrived += tasks;
      (*ctx->ces)[node]->enqueue_units(tasks, *ctx->next_id);
      *ctx->next_id += tasks;
      if (ctx->trace != nullptr) {
        ctx->trace->events.emit(ctx->sim->now(), obs::Kind::kInject,
                                static_cast<std::int32_t>(node), -1,
                                static_cast<std::uint32_t>(tasks));
      }
      if (ctx->rebalance) {
        // Section 5's "LB episode at every external arrival": replay the
        // policy's initial balancing decision against the live queues.
        const std::vector<core::TransferDirective> directives =
            ctx->policy->on_start(*ctx->view);
        if (ctx->trace != nullptr) {
          ctx->trace->events.emit(ctx->sim->now(), obs::Kind::kPolicyDecision,
                                  static_cast<std::int32_t>(node), -1,
                                  static_cast<std::uint32_t>(directives.size()));
        }
        (*ctx->execute_directives)(directives);
      }
      if (last) {
        ctx->tracker->injection_done = true;
        ctx->tracker->maybe_finish();
      }
    });
  }

  // Wire the environment's listener once its consumers exist: re-arm every
  // stochastic failure process at the new state's hazard and re-draw the MMPP
  // gap. Listener fires per transition (rare), so the std::function is off
  // the per-event hot path.
  if (environment) {
    struct EnvCtx {
      std::vector<std::unique_ptr<node::FailureProcess>>* churn;
      env::Environment* environment;
      env::ArrivalProcess* arrivals;
      LiveView* view;
      const std::vector<net::Topology>* topo_states;  // null unless edge churn
    };
    // (The kEnvTransition trace record is emitted by the Environment itself,
    // before this listener runs.)
    environment->set_transition_listener(
        [ctx = EnvCtx{&churn, &*environment, arrivals ? &*arrivals : nullptr, &view,
                      config.topology.dynamic() ? topo_states : nullptr}](
            std::size_t /*from*/, std::size_t to) {
          const double mult = ctx.environment->spec().failure_mult[to];
          for (const auto& process : *ctx.churn) {
            if (process) process->set_hazard_multiplier(mult);
          }
          if (ctx.arrivals != nullptr) ctx.arrivals->on_environment_transition();
          if (ctx.topo_states != nullptr) {
            ctx.view->set_topology(&(*ctx.topo_states)[to]);
          }
        });
    // The initial state's multiplier applies to the very first TTF draws.
    const double mult = environment->failure_multiplier();
    for (const auto& process : churn) {
      if (process) process->set_hazard_multiplier(mult);
    }
  }

  // --- t = 0: policy's initial action, then churn starts ---
  {
    const std::vector<core::TransferDirective> initial = policy.on_start(view);
    if (trace != nullptr) {
      trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, -1, -1,
                         static_cast<std::uint32_t>(initial.size()));
    }
    execute(initial);
  }
  std::function<void()> tick;
  if (config.rebalance_period > 0.0) {
    // Recurring timer for periodic policies; stops mattering once done.
    // `tick` outlives the whole run (the simulation drains inside this
    // scope), so the rescheduling lambda can reference it directly — a
    // self-captured shared_ptr here leaks one cycle per replication.
    tick = [&] {
      if (tracker.done) return;
      const std::vector<core::TransferDirective> directives = policy.on_periodic(view);
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, -1, -1,
                           static_cast<std::uint32_t>(directives.size()));
      }
      execute(directives);
      sim.schedule_in(config.rebalance_period, tick);
    };
    sim.schedule_in(config.rebalance_period, tick);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!schedules.empty() && schedules[i] != nullptr) {
      schedules[i]->start();  // fires a down@0 synchronously, like initially_down
      continue;
    }
    const bool can_churn = config.churn_enabled && config.params.nodes[i].lambda_f > 0.0;
    const bool starts_down = config.starts_down(i);
    if (can_churn || starts_down) churn[i]->start(starts_down);
  }
  if (environment) environment->start();
  if (arrivals) arrivals->start();

  ProfileClock::time_point profile_loop{};
  if (controls.profile != nullptr) {
    profile_loop = ProfileClock::now();
    controls.profile->setup_s +=
        std::chrono::duration<double>(profile_loop - profile_begin).count();
  }
  sim.run_while_pending([&] { return tracker.done; });
  if (controls.profile != nullptr) {
    controls.profile->loop_s +=
        std::chrono::duration<double>(ProfileClock::now() - profile_loop).count();
    controls.profile->reps += 1;
    controls.profile->events += sim.executed_events();
  }
  LBSIM_CHECK(tracker.done, "simulation drained its event queue before completing "
                                << tracker.remaining << " tasks"
                                << (tracker.injection_done
                                        ? ""
                                        : " (arrival stream starved: an MMPP state with "
                                          "rate 0 and no environment transitions?)"));

  result.completion_time = tracker.completion_time;
  if (environment) result.env_transitions = environment->transitions();
  for (const auto& ce : ces) result.tasks_completed += ce->stats().tasks_completed;
  return result;
}

}  // namespace lbsim::mc
