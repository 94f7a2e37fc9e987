#include "mc/steady.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "mc/driver.hpp"
#include "mc/engine.hpp"
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

  // Post-warm-up pool size is bounded by replications * window, so the exact
  // quantile buffer is kept under the same cap as the finite engine.
  const bool keep_samples =
      sc.collect_samples || sc.replications * spec.tasks <= kExactQuantileCap;
  const bool metered = sc.obs.metrics != nullptr;

  // Replication-invariant exchange graphs, shared read-only by every worker.
  const std::vector<net::Topology> topology_states = build_topology_states(config);

  /// A steady worker keeps its sojourn log between replications.
  struct SteadyWorker : ScenarioWorker {
    using ScenarioWorker::ScenarioWorker;
    std::vector<double> log;
  };
  /// One observation window, analysed on its worker: MSER-5's warm-up cut,
  /// the batch means, the post-warm-up sojourns (kept for the exact
  /// quantiles or the sojourn histogram) and, past the cap, the (count,
  /// estimate) of a P² sketch per quantile level.
  constexpr double kLevels[] = {0.5, 0.9, 0.99};
  using Sketched = std::pair<std::size_t, double>;
  struct Window {
    stoch::BatchMeans bm;
    RunResult run;
    std::size_t warmup = 0;
    std::vector<double> post;
    Sketched sketched[3] = {};
  };

  // Folded in replication order.
  SteadyResult result;
  std::vector<double> pooled;
  pooled.reserve(sc.replications * spec.batches);
  std::size_t observations = 0;
  std::size_t batch_size = 0;
  double task_seconds = 0.0;
  double failures = 0.0;
  double moved = 0.0;
  std::vector<double> all;  // post-warm-up sojourns (keep_samples only)
  if (keep_samples) all.reserve(sc.replications * spec.tasks);
  std::vector<Sketched> sketches[3];

  run_replications(
      sc.replications, sc.threads, sc.obs, "steady",
      [&] { return SteadyWorker(config, topology_states, sc.obs.profile != nullptr); },
      [&](SteadyWorker& worker, std::size_t rep, RunTrace* trace) {
        std::vector<double>& log = worker.log;
        log.clear();
        log.reserve(spec.tasks);
        SteadyProbe probe;
        probe.target_completions = spec.tasks;
        probe.sojourn_log = &log;
        Window out;
        out.run = run_scenario(worker.config, sc.seed, rep, trace, worker.sim, probe,
                               worker.controls);
        using Clock = std::chrono::steady_clock;
        Clock::time_point fold_begin{};
        if (worker.controls.profile != nullptr) fold_begin = Clock::now();
        out.warmup = stoch::mser5_truncation(log, spec.warmup_cap);
        out.bm = stoch::batch_means(log, out.warmup, spec.batches);
        const auto post_begin = log.begin() + static_cast<std::ptrdiff_t>(out.warmup);
        if (keep_samples || metered) out.post.assign(post_begin, log.end());
        for (std::size_t k = 0; !keep_samples && k < 3; ++k) {
          stoch::P2Quantile sketch(kLevels[k]);
          for (auto x = post_begin; x != log.end(); ++x) sketch.add(*x);
          out.sketched[k] = {sketch.count(), sketch.estimate()};
        }
        if (worker.controls.profile != nullptr) {
          worker.profile.fold_s +=
              std::chrono::duration<double>(Clock::now() - fold_begin).count();
        }
        return out;
      },
      [&](std::size_t rep, const Window& w, obs::Registry* metrics) {
        pooled.insert(pooled.end(), w.bm.means.begin(), w.bm.means.end());
        if (rep == 0) batch_size = w.bm.batch_size;
        observations += w.bm.observations;
        result.warmup += w.warmup;
        result.horizon_time += w.run.completion_time;
        task_seconds += static_cast<double>(w.run.sojourn.count()) * w.run.sojourn.mean();
        failures += static_cast<double>(w.run.failures);
        moved += static_cast<double>(w.run.tasks_moved);
        if (keep_samples) all.insert(all.end(), w.post.begin(), w.post.end());
        for (std::size_t k = 0; !keep_samples && k < 3; ++k) {
          if (w.sketched[k].first > 0) sketches[k].push_back(w.sketched[k]);
        }
        if (metrics != nullptr) {
          metrics->counter("steady.replications").add(1);
          fold_run_counters(*metrics, "steady", w.run);
          metrics->counter("steady.warmup_discarded").add(w.warmup);
          obs::Histogram& sojourn = metrics->histogram("steady.sojourn");
          for (const double x : w.post) sojourn.observe(x);
        }
      });

  result.batch = stoch::summarize_batch_means(std::move(pooled), batch_size);
  result.batch.observations = observations;  // per-rep batch sizes may differ by 1
  result.mean_queue_length =
      result.horizon_time > 0.0 ? task_seconds / result.horizon_time : 0.0;
  const double reps = static_cast<double>(sc.replications);
  result.mean_failures = failures / reps;
  result.mean_tasks_moved = moved / reps;

  if (keep_samples) {
    if (sc.collect_samples) result.series = all;  // completion order, pre-sort
    std::sort(all.begin(), all.end());
  }
  double* quantiles[] = {&result.p50, &result.p90, &result.p99};
  for (std::size_t k = 0; k < 3; ++k) {
    *quantiles[k] = keep_samples ? stoch::quantile_sorted(all, kLevels[k])
                                 : stoch::combine_estimates(sketches[k]);
  }
  if (sc.collect_samples) result.samples = std::move(all);
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
