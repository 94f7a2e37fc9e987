#include "testbed/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "app/workload.hpp"
#include "env/environment.hpp"
#include "node/failure_process.hpp"
#include "testbed/state_exchange.hpp"
#include "util/error.hpp"

namespace lbsim::testbed {

mc::RunResult run_realization(const TestbedConfig& config, std::uint64_t seed,
                              std::uint64_t replication, mc::RunTrace* trace,
                              obs::PhaseProfile* profile, obs::Registry* metrics) {
  // Profiling reads the monotonic clock only (never the RNG streams).
  using ProfileClock = std::chrono::steady_clock;
  ProfileClock::time_point profile_begin{};
  if (profile != nullptr) profile_begin = ProfileClock::now();

  validate(config);
  const std::size_t n = config.params.nodes.size();

  // Streams: sizes per node, churn per node, network data, state plane; the
  // environment stream is appended only when one is configured, so every
  // environment-free scenario keeps the historical layout bit-identically.
  const bool env_enabled = config.environment.enabled();
  const std::uint64_t streams_per_run =
      2 * static_cast<std::uint64_t>(n) + 2 + (env_enabled ? 1 : 0);
  const std::uint64_t base = replication * streams_per_run;
  ProfileClock::time_point profile_streams{};
  if (profile != nullptr) profile_streams = ProfileClock::now();
  std::vector<stoch::RngStream> size_rngs;
  std::vector<stoch::RngStream> churn_rngs;
  for (std::size_t i = 0; i < n; ++i) {
    size_rngs.emplace_back(seed, base + i);
    churn_rngs.emplace_back(seed, base + n + i);
  }
  stoch::RngStream net_rng(seed, base + 2 * n);
  // The state-plane slot has been reserved in streams_per_run since the
  // beginning; drawing from it now changes no other stream's seeding.
  stoch::RngStream state_rng(seed, base + 2 * n + 1);
  std::optional<stoch::RngStream> env_rng;
  if (env_enabled) env_rng.emplace(seed, base + 2 * n + 2);
  if (profile != nullptr) {
    profile->streams_s +=
        std::chrono::duration<double>(ProfileClock::now() - profile_streams).count();
  }

  des::Simulator sim;

  // --- application layer: CEs with size-proportional service ---
  std::vector<std::unique_ptr<node::ComputeElement>> ces;
  ces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ces.push_back(std::make_unique<node::ComputeElement>(
        sim, static_cast<int>(i),
        app::calibrated_service(config.params.nodes[i].lambda_d), size_rngs[i]));
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

  // --- communication layer ---
  net::Network::Config net_config;
  net_config.data_delay = std::make_unique<net::ErlangPerTaskDelay>(
      config.params.per_task_delay_mean, config.transfer_setup_shift);
  net_config.state_latency = config.state_latency;
  net_config.state_loss_probability = config.state_loss_probability;
  net_config.channel = config.channel;
  net::Network network(sim, n, std::move(net_config), net_rng, state_rng);
  if (trace != nullptr) network.set_event_trace(&trace->events);

  StateBoard board(n);
  StateBroadcaster broadcaster(sim, network, board, ces, config.params,
                               config.state_broadcast_period);

  // --- workload injection (random task sizes -> Exp service times, Fig. 1) ---
  std::size_t remaining = 0;
  double completion_time = 0.0;
  bool done = true;
  for (const std::size_t m : config.workloads) remaining += m;
  done = remaining == 0;
  for (std::size_t i = 0; i < n; ++i) {
    ces[i]->set_completion_handler([&](const node::Task&) {
      LBSIM_CHECK(remaining > 0, "completed more tasks than injected");
      if (--remaining == 0) {
        done = true;
        completion_time = sim.now();
      }
    });
  }
  app::WorkloadGenerator generator;
  for (std::size_t i = 0; i < n; ++i) {
    ces[i]->enqueue_batch(
        generator.generate(config.workloads[i], static_cast<int>(i), size_rngs[i]));
  }

  // --- LB / failure layer ---
  mc::RunResult result;
  core::LoadBalancingPolicy& policy = *config.policy;
  const auto execute = [&](const std::vector<core::TransferDirective>& directives,
                           int acting_node) {
    for (const core::TransferDirective& d : directives) {
      // A node-local decision may only ship that node's own tasks.
      LBSIM_REQUIRE(acting_node < 0 || d.from == acting_node,
                    "node " << acting_node << " directed a transfer from " << d.from);
      if (d.count == 0) continue;
      node::TaskBatch batch = ces.at(static_cast<std::size_t>(d.from))
                                  ->extract_tasks(d.count);
      if (batch.empty()) continue;
      result.bundles_sent += 1;
      result.tasks_moved += batch.size();
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kTransferSend, d.from, d.to,
                           static_cast<std::uint32_t>(batch.size()));
      }
      network.transfer(d.from, d.to, std::move(batch), [&](net::DataTransfer&& xfer) {
        if (trace != nullptr) {
          trace->events.emit(sim.now(), obs::Kind::kTransferDeliver, xfer.from, xfer.to,
                             static_cast<std::uint32_t>(xfer.tasks.size()));
        }
        ces.at(static_cast<std::size_t>(xfer.to))->enqueue_batch(std::move(xfer.tasks));
      });
    }
  };

  // Failure injector + backup agent. Processes are created — and initially-
  // down nodes failed — before the t = 0 decisions, so the state board can be
  // seeded with the exact initial state; churn handlers are attached after
  // that, so starting down is an initial condition (visible to every t = 0
  // decision), not a t = 0 failure event.
  std::vector<std::unique_ptr<node::FailureProcess>> churn;
  churn.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const markov::NodeParams& np = config.params.nodes[i];
    stoch::DistributionPtr ttf;
    stoch::DistributionPtr ttr;
    if (config.churn_enabled && np.lambda_f > 0.0) {
      ttf = std::make_unique<stoch::Exponential>(np.lambda_f);
      ttr = std::make_unique<stoch::Exponential>(np.lambda_r);
    } else if (config.starts_down(i)) {
      // No stochastic churn, but the node must still recover once.
      ttr = std::make_unique<stoch::Exponential>(np.lambda_r);
    }
    churn.push_back(std::make_unique<node::FailureProcess>(sim, *ces[i], std::move(ttf),
                                                           std::move(ttr), churn_rngs[i]));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (config.starts_down(i)) churn[i]->start(/*initially_down=*/true);
  }

  // t = 0: each node runs the policy against its local view and executes only
  // its own outgoing transfers — the distributed decision of Section 3 where
  // every node computes the same schedule from synced state.
  core::RateTable rates;  // one per realization, shared by the n views
  rates.assign(config.params.nodes);
  std::vector<NodeLocalView> views;
  views.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    views.emplace_back(static_cast<int>(i), config.params, rates, ces, board);
  }

  // Runs one policy hook, timing it into policy_s when profiled.
  const auto decide = [profile](const auto& hook) {
    if (profile == nullptr) return hook();
    const ProfileClock::time_point begin = ProfileClock::now();
    std::vector<core::TransferDirective> directives = hook();
    profile->policy_s += std::chrono::duration<double>(ProfileClock::now() - begin).count();
    return directives;
  };

  // Counts a decision where its kPolicyDecision record is written.
  const auto count_decision = [&result](const std::vector<core::TransferDirective>& mine) {
    ++result.policy_decisions;
    if (mine.empty()) ++result.policy_decisions_empty;
  };

  // Staleness accounting: the age of every peer entry a decision consults.
  const auto sample_staleness = [&](int acting_node) {
    for (std::size_t peer = 0; peer < n; ++peer) {
      if (static_cast<int>(peer) == acting_node) continue;
      result.state_age.add(sim.now() - board.last_heard(acting_node, peer).timestamp);
    }
  };

  {
    // All nodes know the exact initial state (paper assumption): seed the
    // state board with true t = 0 packets — including each node's actual
    // up/down status, so an initially-down peer never masquerades as
    // up-and-empty for the first broadcast period.
    for (std::size_t sender = 0; sender < n; ++sender) {
      net::StateInfoPacket packet;
      packet.sender = static_cast<int>(sender);
      packet.timestamp = 0.0;
      packet.queue_size = static_cast<std::uint32_t>(ces[sender]->queue_length());
      packet.processing_rate = config.params.nodes[sender].lambda_d;
      packet.node_up = ces[sender]->is_up();
      for (std::size_t observer = 0; observer < n; ++observer) {
        if (observer == sender) continue;
        board.store(static_cast<int>(observer), packet);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<core::TransferDirective> mine;
      sample_staleness(static_cast<int>(i));
      for (const core::TransferDirective& d :
           decide([&] { return policy.on_start(views[i]); })) {
        if (d.from == static_cast<int>(i)) mine.push_back(d);
      }
      count_decision(mine);
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, static_cast<int>(i), -1,
                           static_cast<std::uint32_t>(mine.size()));
      }
      execute(mine, static_cast<int>(i));
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    churn[i]->set_failure_handler([&, i](int node_id) {
      ++result.failures;
      if (trace != nullptr) trace->events.emit(sim.now(), obs::Kind::kFail, node_id);
      // The backup agent of the failing node reacts with its local view.
      sample_staleness(node_id);
      const std::vector<core::TransferDirective> directives =
          decide([&] { return policy.on_failure(node_id, views[i]); });
      count_decision(directives);
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, node_id, -1,
                           static_cast<std::uint32_t>(directives.size()));
      }
      execute(directives, node_id);
    });
    churn[i]->set_recovery_handler([&, i](int node_id) {
      ++result.recoveries;
      if (trace != nullptr) trace->events.emit(sim.now(), obs::Kind::kRecover, node_id);
      sample_staleness(node_id);
      const std::vector<core::TransferDirective> directives =
          decide([&] { return policy.on_recovery(node_id, views[i]); });
      count_decision(directives);
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, node_id, -1,
                           static_cast<std::uint32_t>(directives.size()));
      }
      execute(directives, node_id);
    });
  }

  // Environment coupling: storms raise every node's failure hazard and, when
  // the channel is env-coupled, floor the channel state (channel storms then
  // correlate with failure storms). Applied before the up-node churn starts so
  // the first time-to-failure draws already see the initial multiplier.
  std::unique_ptr<env::Environment> environment;
  if (env_enabled) {
    environment = std::make_unique<env::Environment>(sim, config.environment, *env_rng);
    if (trace != nullptr) environment->set_event_trace(&trace->events);
    const auto apply_env = [&](std::size_t state) {
      const double mult = config.environment.failure_mult[state];
      for (const auto& process : churn) process->set_hazard_multiplier(mult);
      if (config.channel.env_coupled) {
        const std::size_t k_env = config.environment.states;
        const std::size_t k_ch = config.channel.states;
        const double frac =
            k_env > 1 ? static_cast<double>(state) / static_cast<double>(k_env - 1) : 0.0;
        network.set_channel_floor(
            static_cast<std::size_t>(std::lround(frac * static_cast<double>(k_ch - 1))));
      }
    };
    environment->set_transition_listener(
        [&, apply_env](std::size_t, std::size_t to) { apply_env(to); });
    apply_env(environment->state());
    environment->start();
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (config.churn_enabled && config.params.nodes[i].lambda_f > 0.0 &&
        !config.starts_down(i)) {
      churn[i]->start();
    }
  }
  broadcaster.start();

  ProfileClock::time_point profile_loop{};
  if (profile != nullptr) {
    profile_loop = ProfileClock::now();
    profile->setup_s += std::chrono::duration<double>(profile_loop - profile_begin).count();
  }
  sim.run_while_pending([&] { return done; });
  if (profile != nullptr) {
    profile->loop_s +=
        std::chrono::duration<double>(ProfileClock::now() - profile_loop).count();
    profile->reps += 1;
    profile->events += sim.executed_events();
  }
  LBSIM_CHECK(done, "testbed drained its event queue with " << remaining
                                                            << " tasks outstanding");
  broadcaster.stop();

  result.completion_time = completion_time;
  for (const auto& ce : ces) result.tasks_completed += ce->stats().tasks_completed;
  result.state_packets_lost = network.state_packets_lost();
  if (environment != nullptr) result.env_transitions = environment->transitions();
  if (metrics != nullptr) {
    // DES-core instruments; the realization owns its simulator, so the queue
    // stats here cover exactly this run.
    const des::EventQueue::Stats& qs = sim.queue_stats();
    metrics->counter("des.events.scheduled").add(qs.scheduled);
    metrics->counter("des.events.popped").add(qs.popped);
    metrics->counter("des.events.cancelled").add(qs.cancelled);
    metrics->counter("des.slab.compactions").add(qs.compactions);
    metrics->gauge("des.queue.max_depth").max_of(static_cast<double>(qs.max_depth));
  }
  return result;
}

ExperimentSummary run_experiment(const TestbedConfig& config, std::size_t realizations,
                                 std::uint64_t seed, unsigned threads,
                                 const mc::ObsSinks& sinks) {
  LBSIM_REQUIRE(realizations >= 1, "realizations=" << realizations);
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
    Partial& out = partials[tid];
    obs::Registry* metrics = sinks.metrics != nullptr ? &out.metrics : nullptr;
    obs::PhaseProfile* profile = sinks.profile != nullptr ? &out.profile : nullptr;
    for (std::size_t rep = tid; rep < realizations; rep += workers) {
      mc::RunTrace* trace = sinks.trace != nullptr ? &rep_traces[rep] : nullptr;
      const mc::RunResult run = run_realization(local, seed, rep, trace, profile, metrics);
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
