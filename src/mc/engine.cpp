#include "mc/engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "markov/theory_oracle.hpp"
#include "mc/theory.hpp"
#include "sim/simulator.hpp"
#include "stochastic/estimate.hpp"
#include "stochastic/quantile_sketch.hpp"
#include "util/error.hpp"

namespace lbsim::mc {

const char* vr_mode_name(VrMode mode) noexcept {
  switch (mode) {
    case VrMode::kNone: return "none";
    case VrMode::kAntithetic: return "antithetic";
    case VrMode::kControlVariate: return "cv";
    case VrMode::kBoth: return "both";
  }
  return "none";
}

bool parse_vr_mode(std::string_view text, VrMode& mode) noexcept {
  if (text == "none") {
    mode = VrMode::kNone;
  } else if (text == "antithetic") {
    mode = VrMode::kAntithetic;
  } else if (text == "cv") {
    mode = VrMode::kControlVariate;
  } else if (text == "both") {
    mode = VrMode::kBoth;
  } else {
    return false;
  }
  return true;
}

double McResult::ci95() const noexcept { return stoch::ci_half_width(completion); }

double McResult::sample_quantile(double q) const {
  LBSIM_REQUIRE(!samples.empty(), "sample_quantile needs collect_samples");
  return stoch::quantile_sorted(samples, q);
}

namespace {

using ProfileClock = std::chrono::steady_clock;

/// Folds one replication's result counters into a worker-local registry.
/// Called from worker threads on their own registry — no synchronisation.
void fold_run_metrics(obs::Registry& metrics, const RunResult& run) {
  metrics.counter("mc.replications").add(1);
  metrics.counter("mc.failures").add(run.failures);
  metrics.counter("mc.recoveries").add(run.recoveries);
  metrics.counter("mc.tasks_completed").add(run.tasks_completed);
  metrics.counter("mc.tasks_arrived").add(run.tasks_arrived);
  metrics.counter("env.transitions").add(run.env_transitions);
  metrics.counter("net.tasks_moved").add(run.tasks_moved);
  metrics.counter("net.bundles_sent").add(run.bundles_sent);
  metrics.counter("policy.decisions").add(run.policy_decisions);
  metrics.counter("policy.decisions.empty").add(run.policy_decisions_empty);
  metrics.histogram("mc.completion_time").observe(run.completion_time);
}

/// Folds the worker simulator's cumulative DES-core stats (the simulator is
/// reused across the worker's whole replication loop).
void fold_queue_metrics(obs::Registry& metrics, const des::Simulator& sim) {
  const des::EventQueue::Stats& qs = sim.queue_stats();
  metrics.counter("des.events.scheduled").add(qs.scheduled);
  metrics.counter("des.events.popped").add(qs.popped);
  metrics.counter("des.events.cancelled").add(qs.cancelled);
  metrics.counter("des.slab.compactions").add(qs.compactions);
  metrics.gauge("des.queue.max_depth").max_of(static_cast<double>(qs.max_depth));
}

/// Stitches per-replication trace buffers into the sink in replication order,
/// each behind a kRepBegin marker — the merged trace is thread-count-
/// independent because workers wrote disjoint buffers.
void fold_traces(obs::TraceBuffer& sink, std::vector<RunTrace>& rep_traces) {
  for (std::size_t rep = 0; rep < rep_traces.size(); ++rep) {
    sink.emit(0.0, obs::Kind::kRepBegin, -1, -1, 0, rep);
    sink.absorb(std::move(rep_traces[rep].events));
  }
}

/// The control-variate plan: the control Y is the completion time of the
/// scenario's *churn-free surrogate* (same workloads, policy, delay law;
/// churn stripped) replayed under common random numbers, with E[Y] exact from
/// the theory oracle. Admissible iff the scenario is churn-affected (else Y
/// coincides with T and there is nothing to adjust) and the surrogate maps
/// onto a tractable solver.
struct ControlPlan {
  bool ok = false;
  std::string reason;        ///< fallback marker, valid iff !ok
  ScenarioConfig surrogate;  ///< valid iff ok
  double mean = 0.0;         ///< exact E[Y]
  std::string method;        ///< oracle solver behind `mean`
};

ControlPlan plan_control(const ScenarioConfig& config) {
  ControlPlan plan;
  bool churn_affected = config.initially_down != 0 || !config.schedule.empty();
  if (!churn_affected && config.churn_enabled) {
    for (const markov::NodeParams& node : config.params.nodes) {
      if (node.lambda_f > 0.0) {
        churn_affected = true;
        break;
      }
    }
  }
  if (!churn_affected) {
    plan.reason =
        "control variate unavailable: scenario is churn-free, so the control "
        "would coincide with the target";
    return plan;
  }
  ScenarioConfig surrogate = config.clone();
  surrogate.churn_enabled = false;
  surrogate.initially_down = 0;
  surrogate.schedule = env::Schedule{};
  const TheoryMapping mapping = map_to_theory(surrogate);
  if (!mapping.ok) {
    plan.reason = "control variate unavailable: " + mapping.reason;
    return plan;
  }
  const markov::TheoryPrediction prediction = markov::TheoryOracle{}.mean(mapping.query);
  if (!prediction.applicable) {
    plan.reason = "control variate unavailable: " + prediction.reason;
    return plan;
  }
  plan.ok = true;
  plan.surrogate = std::move(surrogate);
  plan.mean = prediction.mean;
  plan.method = prediction.method;
  return plan;
}

/// The VR replication loop. Kept apart from the plain loop so the historical
/// (vr = none) path stays byte-for-byte identical; this path always stores
/// the per-replication values (they are what the adjustment consumes), so its
/// quantile summary is exact at any replication count.
McResult run_variance_reduced(const ScenarioConfig& config, const McConfig& mc,
                              const std::vector<net::Topology>& topology_states) {
  const bool antithetic = mc.vr == VrMode::kAntithetic || mc.vr == VrMode::kBoth;
  const bool want_control = mc.vr == VrMode::kControlVariate || mc.vr == VrMode::kBoth;
  LBSIM_REQUIRE(!antithetic || mc.replications % 2 == 0,
                "antithetic pairing needs an even replication count, got "
                    << mc.replications);

  McResult result;
  result.vr.requested = mc.vr;
  result.vr.antithetic = antithetic;

  const ProfileClock::time_point wall_begin = ProfileClock::now();

  ControlPlan plan;
  if (want_control) {
    plan = plan_control(config);
    if (!plan.ok) {
      result.vr.fallback = plan.reason;
      if (mc.obs.metrics != nullptr) mc.obs.metrics->counter("mc.vr.fallbacks").add(1);
    }
  }
  const bool use_control = want_control && plan.ok;

  const std::size_t reps = mc.replications;
  unsigned threads = mc.threads == 0 ? std::thread::hardware_concurrency() : mc.threads;
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(reps)));

  // Per-replication values, indexed by replication id: workers write disjoint
  // entries, so the arrays need no synchronisation and every statistic below
  // is independent of the thread count.
  std::vector<double> target(reps, 0.0);
  std::vector<double> control(use_control ? reps : 0, 0.0);

  // Per-replication trace buffers, also indexed by replication id (the
  // control surrogate runs are never traced — they are estimator internals,
  // not model events).
  std::vector<RunTrace> rep_traces;
  if (mc.obs.trace != nullptr) {
    rep_traces.resize(reps);
    for (RunTrace& t : rep_traces) t.record_queues = false;
  }

  struct Partial {
    stoch::RunningStats sojourn;
    double failures = 0.0;
    double tasks_moved = 0.0;
    double bundles = 0.0;
    obs::Registry metrics;
    obs::PhaseProfile profile;
  };
  std::vector<Partial> partials(threads);

  const auto worker = [&](unsigned tid) {
    const ScenarioConfig local = config.clone();
    ScenarioConfig local_surrogate;
    if (use_control) local_surrogate = plan.surrogate.clone();
    des::Simulator sim;
    ReplicationWorkspace workspace;  // serves the target and the surrogate in turn
    Partial& out = partials[tid];
    obs::Registry* metrics = mc.obs.metrics != nullptr ? &out.metrics : nullptr;
    for (std::size_t rep = tid; rep < reps; rep += threads) {
      RunControls controls;
      controls.topology_states = &topology_states;
      controls.workspace = &workspace;
      // Only the target run is profiled; the surrogate's cost shows up in
      // measured reps/s and the mc.vr.surrogate_runs counter instead, so
      // profile.reps keeps meaning "replications".
      if (mc.obs.profile != nullptr) controls.profile = &out.profile;
      std::uint64_t stream_rep = rep;
      if (antithetic) {
        // Pair (2k, 2k+1): one stream id used twice, the odd member mirrored.
        controls.antithetic = rep % 2 == 1;
        stream_rep = rep / 2;
      }
      RunTrace* trace = mc.obs.trace != nullptr ? &rep_traces[rep] : nullptr;
      const RunResult run =
          run_scenario(local, mc.seed, stream_rep, trace, sim, SteadyProbe{}, controls);
      ProfileClock::time_point fold_begin{};
      if (controls.profile != nullptr) fold_begin = ProfileClock::now();
      target[rep] = run.completion_time;
      out.sojourn.merge(run.sojourn);
      out.failures += static_cast<double>(run.failures);
      out.tasks_moved += static_cast<double>(run.tasks_moved);
      out.bundles += static_cast<double>(run.bundles_sent);
      if (metrics != nullptr) fold_run_metrics(*metrics, run);
      if (controls.profile != nullptr) {
        controls.profile->fold_s +=
            std::chrono::duration<double>(ProfileClock::now() - fold_begin).count();
      }
      if (use_control) {
        // Common random numbers: stripping churn leaves the stream layout
        // unchanged, so the surrogate replays the same draws and Y stays
        // tightly coupled to T. It keeps the target's topology and
        // environment, so it shares the target's graphs too.
        RunControls ctrl_controls;
        ctrl_controls.antithetic = controls.antithetic;
        ctrl_controls.topology_states = &topology_states;
        ctrl_controls.workspace = &workspace;
        const RunResult ctrl = run_scenario(local_surrogate, mc.seed, stream_rep, nullptr,
                                            sim, SteadyProbe{}, ctrl_controls);
        control[rep] = ctrl.completion_time;
        if (metrics != nullptr) metrics->counter("mc.vr.surrogate_runs").add(1);
      }
    }
    if (metrics != nullptr) fold_queue_metrics(*metrics, sim);
  };

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }

  // Raw (plain-estimator) statistics, accumulated in replication order.
  for (const double t : target) result.completion.add(t);
  double failures = 0.0;
  double moved = 0.0;
  double bundles = 0.0;
  for (Partial& p : partials) {
    result.sojourn.merge(p.sojourn);
    failures += p.failures;
    moved += p.tasks_moved;
    bundles += p.bundles;
    if (mc.obs.metrics != nullptr) mc.obs.metrics->merge(p.metrics);
    if (mc.obs.profile != nullptr) mc.obs.profile->merge(p.profile);
  }
  if (mc.obs.trace != nullptr) fold_traces(*mc.obs.trace, rep_traces);
  if (mc.obs.metrics != nullptr) {
    const double wall_s =
        std::chrono::duration<double>(ProfileClock::now() - wall_begin).count();
    if (wall_s > 0.0) {
      mc.obs.metrics->gauge("mc.reps_per_s").set(static_cast<double>(reps) / wall_s);
    }
  }
  const double n = static_cast<double>(reps);
  result.mean_failures = failures / n;
  result.mean_tasks_moved = moved / n;
  result.mean_bundles = bundles / n;
  std::vector<double> sorted = target;
  std::sort(sorted.begin(), sorted.end());
  result.p50 = stoch::quantile_sorted(sorted, 0.5);
  result.p90 = stoch::quantile_sorted(sorted, 0.9);
  result.p99 = stoch::quantile_sorted(sorted, 0.99);
  if (mc.collect_samples) result.samples = std::move(sorted);

  // Adjusted estimator: pair means under antithetic pairing, then an optional
  // control-variate regression on what remains.
  std::vector<double> t_obs;
  std::vector<double> y_obs;
  if (antithetic) {
    t_obs.reserve(reps / 2);
    for (std::size_t k = 0; k < reps / 2; ++k) {
      t_obs.push_back(0.5 * (target[2 * k] + target[2 * k + 1]));
    }
    if (use_control) {
      y_obs.reserve(reps / 2);
      for (std::size_t k = 0; k < reps / 2; ++k) {
        y_obs.push_back(0.5 * (control[2 * k] + control[2 * k + 1]));
      }
    }
  } else {
    t_obs = target;
    y_obs = control;
  }

  bool control_active = use_control;
  double adj_mean = 0.0;
  double adj_se = 0.0;
  double adj_var = 0.0;
  std::size_t adj_obs = 0;
  if (control_active) {
    const std::size_t pilot = mc.cv_pilot != 0
                                  ? mc.cv_pilot
                                  : std::clamp<std::size_t>(t_obs.size() / 10, 4, 64);
    LBSIM_REQUIRE(t_obs.size() >= pilot + 2,
                  "control variate needs at least pilot + 2 = "
                      << pilot + 2 << " observations, have " << t_obs.size()
                      << " (raise replications or lower the pilot)");
    const stoch::ControlVariateEstimate cv =
        stoch::control_variate_adjust(t_obs, y_obs, plan.mean, pilot);
    if (cv.ok) {
      result.vr.control = true;
      result.vr.beta = cv.beta;
      result.vr.pilot = cv.pilot;
      result.vr.control_mean = plan.mean;
      result.vr.control_method = plan.method;
      adj_mean = cv.mean;
      adj_se = cv.std_error;
      adj_var = cv.variance;
      adj_obs = cv.evaluated;
    } else {
      control_active = false;
      result.vr.fallback =
          "control variate unavailable: the control shows no variance in the pilot block";
      if (mc.obs.metrics != nullptr) mc.obs.metrics->counter("mc.vr.fallbacks").add(1);
    }
  }
  if (!control_active) {
    if (antithetic) {
      stoch::RunningStats pair_stats;
      for (const double z : t_obs) pair_stats.add(z);
      adj_mean = pair_stats.mean();
      adj_se = pair_stats.std_error();
      adj_var = pair_stats.variance();
      adj_obs = pair_stats.count();
    } else {
      // Everything fell back: the adjusted estimate is the raw one.
      adj_mean = result.completion.mean();
      adj_se = result.completion.std_error();
      adj_var = result.completion.variance();
      adj_obs = reps;
    }
  }
  result.vr.mean = adj_mean;
  result.vr.std_error = adj_se;
  result.vr.observations = adj_obs;

  // Per-replication variance of each estimator (a pair-mean observation costs
  // two replications); degenerate zero-variance runs report a neutral ratio.
  const double per_rep_adjusted = (antithetic ? 2.0 : 1.0) * adj_var;
  const double per_rep_raw = result.completion.variance();
  result.vr.variance_ratio =
      per_rep_adjusted > 0.0 ? per_rep_raw / per_rep_adjusted : 1.0;
  return result;
}

}  // namespace

McResult run_monte_carlo(const ScenarioConfig& config, const McConfig& mc) {
  LBSIM_REQUIRE(mc.replications >= 1, "replications=" << mc.replications);
  // The exchange graphs are replication-invariant: build them once and share
  // them read-only with every replication on every worker.
  const std::vector<net::Topology> topology_states = build_topology_states(config);
  if (mc.vr != VrMode::kNone) return run_variance_reduced(config, mc, topology_states);
  unsigned threads = mc.threads == 0 ? std::thread::hardware_concurrency() : mc.threads;
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(mc.replications)));

  const ProfileClock::time_point wall_begin = ProfileClock::now();

  // Per-replication trace buffers, indexed by replication id: workers write
  // disjoint entries, and the post-join fold stitches them in replication
  // order, so the merged trace is thread-count-independent.
  std::vector<RunTrace> rep_traces;
  if (mc.obs.trace != nullptr) {
    rep_traces.resize(mc.replications);
    for (RunTrace& t : rep_traces) t.record_queues = false;
  }

  struct Partial {
    stoch::RunningStats completion;
    stoch::RunningStats sojourn;
    double failures = 0.0;
    double tasks_moved = 0.0;
    double bundles = 0.0;
    std::vector<double> samples;
    // Streaming quantile sketches (used when raw samples are not kept).
    stoch::P2Quantile p50{0.5};
    stoch::P2Quantile p90{0.9};
    stoch::P2Quantile p99{0.99};
    obs::Registry metrics;      // folded into the sink in worker-id order
    obs::PhaseProfile profile;  // folded by summation
  };
  std::vector<Partial> partials(threads);

  // Exact (thread-count-independent) quantiles are kept whenever the sample
  // buffer stays bounded: always under collect_samples, and transiently up to
  // kExactQuantileCap replications. Only past the cap does the per-worker P²
  // streaming path take over.
  const bool keep_samples = mc.collect_samples || mc.replications <= kExactQuantileCap;

  const auto worker = [&](unsigned tid) {
    // Each worker clones the scenario once, and RNG streams are keyed by
    // replication index. One simulator and one replication workspace per
    // worker: the event slab, the nodes and the task blocks are reset, not
    // rebuilt, across the whole replication loop.
    const ScenarioConfig local = config.clone();
    des::Simulator sim;
    ReplicationWorkspace workspace;
    Partial& out = partials[tid];
    obs::Registry* metrics = mc.obs.metrics != nullptr ? &out.metrics : nullptr;
    RunControls controls;
    controls.topology_states = &topology_states;
    controls.workspace = &workspace;
    if (mc.obs.profile != nullptr) controls.profile = &out.profile;
    if (keep_samples) out.samples.reserve(mc.replications / threads + 1);
    for (std::size_t rep = tid; rep < mc.replications; rep += threads) {
      RunTrace* trace = mc.obs.trace != nullptr ? &rep_traces[rep] : nullptr;
      const RunResult run =
          run_scenario(local, mc.seed, rep, trace, sim, SteadyProbe{}, controls);
      ProfileClock::time_point fold_begin{};
      if (controls.profile != nullptr) fold_begin = ProfileClock::now();
      out.completion.add(run.completion_time);
      out.sojourn.merge(run.sojourn);
      out.failures += static_cast<double>(run.failures);
      out.tasks_moved += static_cast<double>(run.tasks_moved);
      out.bundles += static_cast<double>(run.bundles_sent);
      if (keep_samples) {
        out.samples.push_back(run.completion_time);
      } else {
        out.p50.add(run.completion_time);
        out.p90.add(run.completion_time);
        out.p99.add(run.completion_time);
      }
      if (metrics != nullptr) fold_run_metrics(*metrics, run);
      if (controls.profile != nullptr) {
        controls.profile->fold_s +=
            std::chrono::duration<double>(ProfileClock::now() - fold_begin).count();
      }
    }
    if (metrics != nullptr) fold_queue_metrics(*metrics, sim);
  };

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }

  McResult result;
  double failures = 0.0;
  double moved = 0.0;
  double bundles = 0.0;
  for (Partial& p : partials) {
    result.completion.merge(p.completion);
    result.sojourn.merge(p.sojourn);
    failures += p.failures;
    moved += p.tasks_moved;
    bundles += p.bundles;
    result.samples.insert(result.samples.end(), p.samples.begin(), p.samples.end());
    if (mc.obs.metrics != nullptr) mc.obs.metrics->merge(p.metrics);
    if (mc.obs.profile != nullptr) mc.obs.profile->merge(p.profile);
  }
  if (mc.obs.trace != nullptr) fold_traces(*mc.obs.trace, rep_traces);
  if (mc.obs.metrics != nullptr) {
    const double wall_s =
        std::chrono::duration<double>(ProfileClock::now() - wall_begin).count();
    if (wall_s > 0.0) {
      mc.obs.metrics->gauge("mc.reps_per_s")
          .set(static_cast<double>(mc.replications) / wall_s);
    }
  }
  const double n = static_cast<double>(mc.replications);
  result.mean_failures = failures / n;
  result.mean_tasks_moved = moved / n;
  result.mean_bundles = bundles / n;
  if (keep_samples) {
    std::sort(result.samples.begin(), result.samples.end());
    result.p50 = stoch::quantile_sorted(result.samples, 0.5);
    result.p90 = stoch::quantile_sorted(result.samples, 0.9);
    result.p99 = stoch::quantile_sorted(result.samples, 0.99);
    // The transient buffer was only for the exact quantiles; the caller did
    // not ask for samples.
    if (!mc.collect_samples) {
      result.samples.clear();
      result.samples.shrink_to_fit();
    }
  } else {
    const auto combine = [&partials](stoch::P2Quantile Partial::* sketch) {
      std::vector<std::pair<std::size_t, double>> parts;
      parts.reserve(partials.size());
      for (const Partial& p : partials) {
        if ((p.*sketch).count() > 0) {
          parts.emplace_back((p.*sketch).count(), (p.*sketch).estimate());
        }
      }
      return stoch::combine_estimates(parts);
    };
    result.p50 = combine(&Partial::p50);
    result.p90 = combine(&Partial::p90);
    result.p99 = combine(&Partial::p99);
  }
  return result;
}

}  // namespace lbsim::mc
