#include "mc/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "markov/theory_oracle.hpp"
#include "mc/driver.hpp"
#include "mc/theory.hpp"
#include "stochastic/estimate.hpp"
#include "stochastic/quantile_sketch.hpp"
#include "util/error.hpp"

namespace lbsim::mc {

const char* engine_name(Engine engine) noexcept {
  return engine == Engine::kTestbed ? "testbed" : "mc";
}

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

/// An MC worker: the abstract-model worker plus, under a control variate,
/// its clone of the surrogate scenario.
struct McWorker : ScenarioWorker {
  McWorker(const ScenarioConfig& config, const std::vector<net::Topology>& topology_states,
           bool profiled, const ControlPlan& plan)
      : ScenarioWorker(config, topology_states, profiled) {
    if (plan.ok) surrogate = plan.surrogate.clone();
  }
  ScenarioConfig surrogate;
};

/// A testbed worker: the emulation and the policy clone its realizations run.
struct TestbedRealizer : TestbedWorker {
  explicit TestbedRealizer(const ScenarioConfig& config)
      : TestbedWorker(config), policy(config.policy->clone()) {}
  core::PolicyPtr policy;
};

/// One replication: the target run and, under a control variate, the
/// surrogate's completion time.
struct McRun {
  RunResult run;
  double control = 0.0;
};

/// The variance-reduced estimate (McResult.vr) from the per-replication
/// target and control values, in replication order.
void adjust(const McConfig& mc, const ControlPlan& plan, const std::vector<double>& target,
            const std::vector<double>& control, McResult& result) {
  const bool antithetic = result.vr.antithetic;
  const bool use_control = !control.empty();
  const std::size_t reps = mc.replications;
  // Pair means under antithetic pairing, then an optional control-variate
  // regression on what remains.
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
}

/// Count-weighted P² estimate of one sketch: the form a merge of several
/// sketches takes (stoch::combine_estimates), which is what past-cap runs
/// have always reported.
double streaming_quantile(const stoch::P2Quantile& sketch) {
  return stoch::combine_estimates({{sketch.count(), sketch.estimate()}});
}

}  // namespace

McResult run_monte_carlo(const ScenarioConfig& config, const McConfig& mc) {
  const std::size_t reps = mc.replications;
  LBSIM_REQUIRE(reps >= 1, "replications=" << reps);
  const bool testbed = mc.engine == Engine::kTestbed;
  if (testbed) {
    check_emulable(config);
    LBSIM_REQUIRE(mc.vr == VrMode::kNone,
                  "variance reduction belongs to the mc engine, not the testbed");
  }
  // The exchange graphs are replication-invariant: build them once and share
  // them read-only with every replication on every worker.
  const std::vector<net::Topology> topology_states = build_topology_states(config);
  const bool antithetic = mc.vr == VrMode::kAntithetic || mc.vr == VrMode::kBoth;
  const bool want_control = mc.vr == VrMode::kControlVariate || mc.vr == VrMode::kBoth;
  LBSIM_REQUIRE(!antithetic || reps % 2 == 0,
                "antithetic pairing needs an even replication count, got " << reps);

  McResult result;
  result.vr.requested = mc.vr;
  result.vr.antithetic = antithetic;

  ControlPlan plan;
  if (want_control) {
    plan = plan_control(config);
    if (!plan.ok) {
      result.vr.fallback = plan.reason;
      if (mc.obs.metrics != nullptr) mc.obs.metrics->counter("mc.vr.fallbacks").add(1);
    }
  }
  const bool use_control = want_control && plan.ok;

  // The fold keeps every completion time, in replication order, whenever the
  // buffer stays bounded: always under collect_samples, transiently up to
  // kExactQuantileCap replications, and always under variance reduction,
  // whose adjustment consumes them (with the control values). The quantiles
  // are then exact; past the cap the P² streaming path takes over.
  const bool keep_samples =
      mc.vr != VrMode::kNone || mc.collect_samples || reps <= kExactQuantileCap;
  std::vector<double> target;
  std::vector<double> control;
  if (keep_samples) target.reserve(reps);
  if (use_control) control.reserve(reps);
  stoch::P2Quantile p50{0.5};
  stoch::P2Quantile p90{0.9};
  stoch::P2Quantile p99{0.99};
  double failures = 0.0;
  double moved = 0.0;
  double bundles = 0.0;
  double state_lost = 0.0;

  const std::string engine = engine_name(mc.engine);
  const auto fold = [&](std::size_t, const McRun& out, obs::Registry* metrics) {
    const RunResult& run = out.run;
    result.completion.add(run.completion_time);
    result.state_age.merge(run.state_age);
    failures += static_cast<double>(run.failures);
    moved += static_cast<double>(run.tasks_moved);
    bundles += static_cast<double>(run.bundles_sent);
    state_lost += static_cast<double>(run.state_packets_lost);
    if (keep_samples) {
      target.push_back(run.completion_time);
    } else {
      p50.add(run.completion_time);
      p90.add(run.completion_time);
      p99.add(run.completion_time);
    }
    if (metrics != nullptr) {
      metrics->counter(testbed ? "testbed.realizations" : "mc.replications").add(1);
      fold_run_counters(*metrics, engine, run);
      if (testbed) metrics->counter("net.state_packets_lost").add(run.state_packets_lost);
      metrics->histogram(engine + ".completion_time").observe(run.completion_time);
    }
    if (use_control) {
      control.push_back(out.control);
      if (metrics != nullptr) metrics->counter("mc.vr.surrogate_runs").add(1);
    }
  };
  // Both engines run through this one driver call and fold; only the worker
  // and what it runs per replication differ.
  const auto replicate = [&](auto make, auto run) {
    run_replications(reps, mc.threads, mc.obs, engine, make, run, fold);
  };

  if (testbed) {
    replicate([&] { return TestbedRealizer(config); },
              [&](TestbedRealizer& worker, std::size_t rep, RunTrace* trace) {
                obs::PhaseProfile* profile =
                    mc.obs.profile != nullptr ? &worker.profile : nullptr;
                return McRun{worker.run(*worker.policy, mc.seed, rep, trace, profile)};
              });
  } else {
    replicate(
        [&] { return McWorker(config, topology_states, mc.obs.profile != nullptr, plan); },
        [&](McWorker& worker, std::size_t rep, RunTrace* trace) {
          // Only the target run is profiled and traced; the surrogate's cost
          // shows up in measured reps/s and the mc.vr.surrogate_runs counter
          // instead, so profile.reps keeps meaning "replications".
          RunControls controls = worker.controls;
          std::uint64_t stream_rep = rep;
          if (antithetic) {
            // Pair (2k, 2k+1): one stream id used twice, the odd member mirrored.
            controls.antithetic = rep % 2 == 1;
            stream_rep = rep / 2;
          }
          McRun out;
          out.run = run_scenario(worker.config, mc.seed, stream_rep, trace, worker.sim,
                                 SteadyProbe{}, controls);
          if (use_control) {
            // Common random numbers: stripping churn leaves the stream layout
            // unchanged, so the surrogate replays the same draws and Y stays
            // tightly coupled to T. It keeps the target's topology and
            // environment, so it shares the target's graphs too.
            controls.profile = nullptr;
            out.control = run_scenario(worker.surrogate, mc.seed, stream_rep, nullptr,
                                       worker.sim, SteadyProbe{}, controls)
                              .completion_time;
          }
          return out;
        });
  }

  const double n = static_cast<double>(reps);
  result.mean_failures = failures / n;
  result.mean_tasks_moved = moved / n;
  result.mean_bundles = bundles / n;
  result.mean_state_lost = state_lost / n;
  if (keep_samples) {
    // The adjustment below needs the values in replication order.
    std::vector<double> sorted;
    if (mc.vr != VrMode::kNone) {
      sorted = target;
    } else {
      sorted.swap(target);
    }
    std::sort(sorted.begin(), sorted.end());
    result.p50 = stoch::quantile_sorted(sorted, 0.5);
    result.p90 = stoch::quantile_sorted(sorted, 0.9);
    result.p99 = stoch::quantile_sorted(sorted, 0.99);
    if (mc.collect_samples) result.samples = std::move(sorted);
  } else {
    result.p50 = streaming_quantile(p50);
    result.p90 = streaming_quantile(p90);
    result.p99 = streaming_quantile(p99);
  }
  if (mc.vr != VrMode::kNone) adjust(mc, plan, target, control, result);
  return result;
}

}  // namespace lbsim::mc
