#include "mc/steady.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "mc/engine.hpp"
#include "sim/simulator.hpp"
#include "stochastic/quantile_sketch.hpp"
#include "util/error.hpp"

namespace lbsim::mc {

SteadyResult run_steady(const ScenarioConfig& config, const SteadyConfig& sc) {
  LBSIM_REQUIRE(sc.replications >= 1, "replications=" << sc.replications);
  LBSIM_REQUIRE(config.arrivals.active() && config.arrivals.unbounded,
                "run_steady needs an active unbounded arrival stream");
  const SteadySpec& spec = config.steady;
  LBSIM_REQUIRE(spec.tasks >= 100, "steady window of " << spec.tasks << " tasks is too "
                                                          "short to analyse (need >= 100)");
  LBSIM_REQUIRE(spec.batches >= 2 && spec.batches <= 1024,
                "steady batch count " << spec.batches << " outside [2, 1024]");
  LBSIM_REQUIRE(spec.tasks >= 10 * spec.batches,
                "steady window of " << spec.tasks << " tasks cannot fill " << spec.batches
                                    << " batches with >= 10 observations each");
  LBSIM_REQUIRE(spec.warmup_cap >= 0.0 && spec.warmup_cap <= 0.9,
                "steady warm-up cap " << spec.warmup_cap << " outside [0, 0.9]");

  unsigned threads = sc.threads == 0 ? std::thread::hardware_concurrency() : sc.threads;
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(sc.replications)));

  // Post-warm-up pool size is bounded by replications * window, so the exact
  // quantile buffer is kept under the same cap as the finite engine.
  const bool keep_samples =
      sc.collect_samples || sc.replications * spec.tasks <= kExactQuantileCap;

  using ProfileClock = std::chrono::steady_clock;
  const ProfileClock::time_point wall_begin = ProfileClock::now();

  // Replication-invariant exchange graphs, shared read-only by every worker.
  const std::vector<net::Topology> topology_states = build_topology_states(config);

  // Indexed by replication (not worker), so every fold below runs in
  // replication order and the result is independent of the thread count.
  struct Per {
    stoch::BatchMeans bm;
    RunResult run;
    std::size_t warmup = 0;
    std::vector<double> post;  // post-warm-up sojourns (keep_samples only)
    stoch::P2Quantile p50{0.5};
    stoch::P2Quantile p90{0.9};
    stoch::P2Quantile p99{0.99};
    RunTrace trace;  // events only; used when sc.obs.trace is attached
  };
  std::vector<Per> per(sc.replications);
  for (Per& p : per) p.trace.record_queues = false;

  // Per-worker observability state, folded in worker-id order after the join
  // (all merges commute, so the dump is thread-count-independent).
  std::vector<obs::Registry> worker_metrics(threads);
  std::vector<obs::PhaseProfile> worker_profiles(threads);

  const auto worker = [&](unsigned tid) {
    const ScenarioConfig local = config.clone();
    des::Simulator sim;
    ReplicationWorkspace workspace;
    std::vector<double> log;
    obs::Registry* metrics = sc.obs.metrics != nullptr ? &worker_metrics[tid] : nullptr;
    RunControls controls;
    controls.topology_states = &topology_states;
    controls.workspace = &workspace;
    if (sc.obs.profile != nullptr) controls.profile = &worker_profiles[tid];
    for (std::size_t rep = tid; rep < sc.replications; rep += threads) {
      log.clear();
      log.reserve(spec.tasks);
      SteadyProbe probe;
      probe.target_completions = spec.tasks;
      probe.sojourn_log = &log;
      Per& out = per[rep];
      RunTrace* trace = sc.obs.trace != nullptr ? &out.trace : nullptr;
      out.run = run_scenario(local, sc.seed, rep, trace, sim, probe, controls);
      ProfileClock::time_point fold_begin{};
      if (controls.profile != nullptr) fold_begin = ProfileClock::now();
      out.warmup = stoch::mser5_truncation(log, spec.warmup_cap);
      out.bm = stoch::batch_means(log, out.warmup, spec.batches);
      if (keep_samples) {
        out.post.assign(log.begin() + static_cast<std::ptrdiff_t>(out.warmup), log.end());
      } else {
        for (std::size_t i = out.warmup; i < log.size(); ++i) {
          out.p50.add(log[i]);
          out.p90.add(log[i]);
          out.p99.add(log[i]);
        }
      }
      if (metrics != nullptr) {
        metrics->counter("steady.replications").add(1);
        metrics->counter("steady.failures").add(out.run.failures);
        metrics->counter("steady.recoveries").add(out.run.recoveries);
        metrics->counter("steady.tasks_completed").add(out.run.tasks_completed);
        metrics->counter("steady.warmup_discarded").add(out.warmup);
        metrics->counter("net.tasks_moved").add(out.run.tasks_moved);
        metrics->counter("net.bundles_sent").add(out.run.bundles_sent);
        metrics->counter("policy.decisions").add(out.run.policy_decisions);
        metrics->counter("policy.decisions.empty").add(out.run.policy_decisions_empty);
        obs::Histogram& sojourn = metrics->histogram("steady.sojourn");
        for (std::size_t i = out.warmup; i < log.size(); ++i) sojourn.observe(log[i]);
      }
      if (controls.profile != nullptr) {
        controls.profile->fold_s +=
            std::chrono::duration<double>(ProfileClock::now() - fold_begin).count();
      }
    }
    if (metrics != nullptr) {
      const des::EventQueue::Stats& qs = sim.queue_stats();
      metrics->counter("des.events.scheduled").add(qs.scheduled);
      metrics->counter("des.events.popped").add(qs.popped);
      metrics->counter("des.events.cancelled").add(qs.cancelled);
      metrics->counter("des.slab.compactions").add(qs.compactions);
      metrics->gauge("des.queue.max_depth").max_of(static_cast<double>(qs.max_depth));
    }
  };

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }

  SteadyResult result;
  // Pool the batch means across replications (replication order).
  std::vector<double> pooled;
  pooled.reserve(sc.replications * spec.batches);
  std::size_t observations = 0;
  double task_seconds = 0.0;
  double failures = 0.0;
  double moved = 0.0;
  for (const Per& p : per) {
    pooled.insert(pooled.end(), p.bm.means.begin(), p.bm.means.end());
    observations += p.bm.observations;
    result.warmup += p.warmup;
    result.horizon_time += p.run.completion_time;
    task_seconds += static_cast<double>(p.run.sojourn.count()) * p.run.sojourn.mean();
    failures += static_cast<double>(p.run.failures);
    moved += static_cast<double>(p.run.tasks_moved);
  }
  result.batch = stoch::summarize_batch_means(std::move(pooled), per[0].bm.batch_size);
  result.batch.observations = observations;  // per-rep batch sizes may differ by 1
  if (sc.obs.trace != nullptr) {
    for (std::size_t rep = 0; rep < sc.replications; ++rep) {
      sc.obs.trace->emit(0.0, obs::Kind::kRepBegin, -1, -1, 0, rep);
      sc.obs.trace->absorb(std::move(per[rep].trace.events));
    }
  }
  if (sc.obs.metrics != nullptr) {
    for (const obs::Registry& r : worker_metrics) sc.obs.metrics->merge(r);
    const double wall_s =
        std::chrono::duration<double>(ProfileClock::now() - wall_begin).count();
    if (wall_s > 0.0) {
      sc.obs.metrics->gauge("steady.reps_per_s")
          .set(static_cast<double>(sc.replications) / wall_s);
    }
  }
  if (sc.obs.profile != nullptr) {
    for (const obs::PhaseProfile& p : worker_profiles) sc.obs.profile->merge(p);
  }
  result.mean_queue_length =
      result.horizon_time > 0.0 ? task_seconds / result.horizon_time : 0.0;
  const double reps = static_cast<double>(sc.replications);
  result.mean_failures = failures / reps;
  result.mean_tasks_moved = moved / reps;

  if (keep_samples) {
    std::vector<double> all;
    all.reserve(observations);
    for (Per& p : per) all.insert(all.end(), p.post.begin(), p.post.end());
    if (sc.collect_samples) result.series = all;  // completion order, pre-sort
    std::sort(all.begin(), all.end());
    result.p50 = stoch::quantile_sorted(all, 0.5);
    result.p90 = stoch::quantile_sorted(all, 0.9);
    result.p99 = stoch::quantile_sorted(all, 0.99);
    if (sc.collect_samples) result.samples = std::move(all);
  } else {
    const auto combine = [&per](stoch::P2Quantile Per::* sketch) {
      std::vector<std::pair<std::size_t, double>> parts;
      parts.reserve(per.size());
      for (const Per& p : per) {
        if ((p.*sketch).count() > 0) {
          parts.emplace_back((p.*sketch).count(), (p.*sketch).estimate());
        }
      }
      return stoch::combine_estimates(parts);
    };
    result.p50 = combine(&Per::p50);
    result.p90 = combine(&Per::p90);
    result.p99 = combine(&Per::p99);
  }
  return result;
}

namespace {

OpenTheory decline(std::string reason) {
  OpenTheory out;
  out.reason = std::move(reason);
  return out;
}

}  // namespace

OpenTheory map_to_open_theory(const ScenarioConfig& config) {
  const env::ArrivalSpec& a = config.arrivals;
  if (a.process == env::ArrivalSpec::Process::kNone || !a.unbounded) {
    return decline("closed system (finite arrival stream)");
  }
  if (a.process == env::ArrivalSpec::Process::kMmpp) {
    return decline("environment-modulated arrivals (no stationary closed form)");
  }
  if (config.environment.enabled()) {
    return decline("environment-modulated dynamics (no stationary closed form)");
  }
  const std::size_t n = config.params.nodes.size();
  bool churns = false;
  if (config.churn_enabled) {
    for (const markov::NodeParams& np : config.params.nodes) {
      if (np.lambda_f > 0.0) churns = true;
    }
  }
  if (churns) return decline("node churn (no stationary closed form)");
  if (config.initially_down != 0) {
    return decline("initially-down nodes (transient initial condition)");
  }
  if (!config.schedule.empty()) {
    return decline("deterministic schedule (no stationary closed form)");
  }
  if (a.batch > 1) return decline("batch arrivals (no M/M/1 mapping)");
  if (a.rebalance) return decline("per-arrival rebalancing (no product form)");
  if (config.rebalance_period > 0.0) return decline("periodic rebalancing (no product form)");
  for (const std::size_t m : config.workloads) {
    if (m > 0) return decline("initial backlog (transient initial condition)");
  }

  // With no churn, no timers, no per-arrival episodes, and empty initial
  // queues, the policy never moves a task: every node is an independent
  // M/M/1 queue fed by its share of the Poisson stream.
  OpenTheory out;
  if (a.target >= 0) {
    const double mu = config.params.nodes[static_cast<std::size_t>(a.target)].lambda_d;
    const double lambda = a.rate;
    out.rho = lambda / mu;
    if (out.rho >= 1.0) return decline("unstable offered load (rho >= 1)");
    out.ok = true;
    out.has_law = true;
    out.rate = mu - lambda;
    out.mean = 1.0 / out.rate;
    return out;
  }
  // Uniform random split: Poisson thinning makes each node an independent
  // M/M/1(lambda/n, mu_i).
  const double lambda_node = a.rate / static_cast<double>(n);
  bool homogeneous = true;
  double mean = 0.0;
  double rho_max = 0.0;
  const double mu0 = config.params.nodes[0].lambda_d;
  for (const markov::NodeParams& np : config.params.nodes) {
    if (np.lambda_d != mu0) homogeneous = false;
    const double rho = lambda_node / np.lambda_d;
    rho_max = std::max(rho_max, rho);
    if (rho >= 1.0) return decline("unstable offered load (rho >= 1)");
    mean += 1.0 / (np.lambda_d - lambda_node);
  }
  out.ok = true;
  out.rho = rho_max;
  out.mean = mean / static_cast<double>(n);
  if (homogeneous) {
    // The mixture collapses: sojourn ~ Exp(mu - lambda/n) exactly.
    out.has_law = true;
    out.rate = mu0 - lambda_node;
  }
  return out;
}

}  // namespace lbsim::mc
