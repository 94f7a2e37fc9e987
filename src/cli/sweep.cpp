#include "cli/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "markov/theory_oracle.hpp"
#include "mc/engine.hpp"
#include "mc/steady.hpp"
#include "mc/theory.hpp"
#include "stochastic/stats.hpp"
#include "testbed/config.hpp"
#include "testbed/experiment.hpp"
#include "util/math.hpp"

namespace lbsim::cli {
namespace {

/// Formats range-generated values compactly ("0.1", not "0.100000").
std::string format_axis_value(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

/// Applies one assignment either to the engine options (mc.*) or the raw
/// scenario config.
void assign(const std::string& key, const std::string& value, RawConfig& raw,
            SweepOptions& options) {
  if (key == "mc.reps") {
    options.replications = parse_reps(value, key);
    options.replications_explicit = true;
  } else if (key == "mc.threads") {
    options.threads = parse_threads(value, key);
  } else if (key == "mc.seed") {
    options.seed = static_cast<std::uint64_t>(parse_int(value, key));
  } else if (key == "mc.vr") {
    if (!mc::parse_vr_mode(value, options.vr)) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, key,
                        "mc.vr must be none, antithetic, cv, or both (got '" + value + "')");
    }
  } else if (key == "mc.cv-pilot") {
    const long long pilot = parse_int(value, key);
    if (pilot < 0) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, key,
                        "mc.cv-pilot must be >= 0 (0 = auto)");
    }
    options.cv_pilot = static_cast<std::size_t>(pilot);
  } else {
    raw.set(key, value);
  }
}

/// Joins the exact-solver prediction onto one MC row: theory_mean, abs_err,
/// and sigma_err (error in MC standard errors). Grid points the oracle
/// declines — no closed form for the policy/delay semantics, or past the
/// n <= 8 tractability boundary — carry the "-" no-solver marker instead.
void append_theory_cells(const mc::ScenarioConfig& built, const mc::McResult& mc_result,
                         std::vector<std::string>& row) {
  const mc::TheoryMapping mapping = mc::map_to_theory(built);
  markov::TheoryPrediction prediction;
  if (mapping.ok) prediction = markov::TheoryOracle{}.mean(mapping.query);
  if (!mapping.ok || !prediction.applicable) {
    row.insert(row.end(), {"-", "-", "-"});
    return;
  }
  const double abs_err = std::fabs(mc_result.mean() - prediction.mean);
  row.push_back(util::format_double(prediction.mean, 3));
  row.push_back(util::format_double(abs_err, 3));
  const double std_error = mc_result.std_error();
  row.push_back(std_error > 0.0 ? util::format_double(abs_err / std_error, 2) : "-");
}

/// Steady-state analogue: the theory column is the exact M/M/1 stationary
/// mean (mc::map_to_open_theory), "-" where no closed form applies.
void append_open_theory_cells(const mc::ScenarioConfig& built,
                              const mc::SteadyResult& steady,
                              std::vector<std::string>& row) {
  const mc::OpenTheory theory = mc::map_to_open_theory(built);
  if (!theory.ok) {
    row.insert(row.end(), {"-", "-", "-"});
    return;
  }
  const double abs_err = std::fabs(steady.mean() - theory.mean);
  row.push_back(util::format_double(theory.mean, 3));
  row.push_back(util::format_double(abs_err, 3));
  const double std_error = steady.std_error();
  row.push_back(std_error > 0.0 ? util::format_double(abs_err / std_error, 2) : "-");
}

}  // namespace

SweepAxis parse_axis(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    throw ConfigError(ConfigError::Kind::kSyntax, spec,
                      "sweep axis '" + spec + "' is not of the form key=values");
  }
  SweepAxis axis;
  axis.key = spec.substr(0, eq);
  const std::string body = spec.substr(eq + 1);

  // lo:hi:step range? (two colons, all numeric). Non-numeric segments fall
  // back to the value-list grammar — schedule timelines ("0:down@10-20")
  // carry colons of their own and must not be mistaken for ranges.
  const std::size_t c1 = body.find(':');
  const std::size_t c2 = c1 == std::string::npos ? std::string::npos : body.find(':', c1 + 1);
  std::optional<double> lo, hi, step;
  if (c2 != std::string::npos && body.find(':', c2 + 1) == std::string::npos) {
    lo = util::try_parse_double(body.substr(0, c1));
    hi = util::try_parse_double(body.substr(c1 + 1, c2 - c1 - 1));
    step = util::try_parse_double(body.substr(c2 + 1));
  }
  if (lo && hi && step) {
    if (*step <= 0.0 || *hi < *lo) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, axis.key,
                        "range '" + body + "' needs step > 0 and hi >= lo");
    }
    // Half-step slack keeps hi inclusive under floating-point accumulation.
    for (double v = *lo; v <= *hi + *step * 0.5; v += *step) {
      axis.values.push_back(format_axis_value(std::min(v, *hi)));
    }
  } else {
    for (const std::string& item : split_list(body)) {
      if (!item.empty()) axis.values.push_back(item);
    }
  }
  if (axis.values.empty()) {
    throw ConfigError(ConfigError::Kind::kSyntax, axis.key,
                      "sweep axis '" + spec + "' has no values");
  }
  return axis;
}

std::vector<std::vector<std::pair<std::string, std::string>>> expand_grid(
    const std::vector<SweepAxis>& axes) {
  std::vector<std::vector<std::pair<std::string, std::string>>> grid;
  std::size_t points = 1;
  for (const SweepAxis& axis : axes) points *= axis.values.size();
  grid.reserve(points);

  std::vector<std::size_t> index(axes.size(), 0);
  for (std::size_t p = 0; p < points; ++p) {
    std::vector<std::pair<std::string, std::string>> assignment;
    assignment.reserve(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      assignment.emplace_back(axes[a].key, axes[a].values[index[a]]);
    }
    grid.push_back(std::move(assignment));
    // Odometer increment, last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++index[a] < axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  return grid;
}

SweepResult run_sweep(const ScenarioSpec& scenario, const RawConfig& base,
                      const std::vector<SweepAxis>& axes, const SweepOptions& options) {
  // Fail fast on axis keys the family does not declare — before any grid
  // point runs, and naming the family (a sweep error surfacing after hours of
  // grid points, or as a bare key name, is miserable to attribute).
  for (const SweepAxis& axis : axes) {
    if (axis.key.rfind("mc.", 0) == 0) continue;  // reserved engine keys
    if (scenario.schema.find(axis.key) == nullptr) {
      std::string msg = "scenario '" + scenario.name + "' has no sweep key '" + axis.key + "'";
      if (const std::string best = scenario.schema.suggest(axis.key); !best.empty()) {
        msg += " (did you mean '" + best + "'?)";
      }
      throw ConfigError(ConfigError::Kind::kUnknownKey, axis.key, msg);
    }
  }
  // Any non-none VR (base option or an mc.vr axis value) appends the VR
  // columns to every row, so a mixed-estimator sweep keeps a rectangular table.
  const bool vr_active =
      options.vr != mc::VrMode::kNone ||
      std::any_of(axes.begin(), axes.end(),
                  [](const SweepAxis& axis) { return axis.key == "mc.vr"; });
  if (scenario.steady && vr_active) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "mc.vr",
                      "mc.vr applies to finite-horizon replications; scenario '" +
                          scenario.name + "' is infinite-horizon");
  }
  if (scenario.testbed) {
    if (vr_active) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "mc.vr",
                        "mc.vr belongs to the abstract MC engine; scenario '" + scenario.name +
                            "' runs on the testbed engine");
    }
    if (options.compare_theory) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "compare",
                        "--compare joins the exact-solver oracle, which models the abstract MC "
                        "semantics only; scenario '" +
                            scenario.name + "' runs on the testbed engine");
    }
  }
  const auto grid = expand_grid(axes);

  // Validate-and-build the whole grid before a single replication runs (on a
  // dry run, before a single row is made): a bad point (out-of-range value,
  // malformed schedule — e.g. a comma-split timeline whose tail value is not
  // a clause, a key the testbed cannot emulate) must fail here with its
  // precise error, not abort a half-finished sweep. Builds are microseconds
  // next to an MC point.
  for (const auto& assignment : grid) {
    RawConfig raw = base;
    SweepOptions point_options = options;
    for (const auto& [key, value] : assignment) {
      assign(key, value, raw, point_options);
    }
    mc::ScenarioConfig built = scenario.build(scenario.schema.resolve(raw));
    if (scenario.testbed) (void)testbed::from_scenario(std::move(built));
  }

  std::vector<std::string> header;
  for (const SweepAxis& axis : axes) header.push_back(axis.key);
  if (options.dry_run) {
    header.insert(header.end(), {"policy", "reps"});
  } else if (scenario.steady) {
    // Steady-state families report the stationary sojourn time, not a
    // completion time: the CI is the batch-means CI, `warmup` the MSER-5
    // truncation, `lag1` the batch-means autocorrelation diagnostic.
    header.insert(header.end(), {"mean_sojourn_s", "ci95_s", "stderr_s", "reps", "tasks",
                                 "warmup", "lag1", "mean_queue"});
    if (options.quantiles) {
      header.insert(header.end(), {"p50_s", "p90_s", "p99_s"});
    }
    if (options.ecdf_points > 0) {
      for (std::size_t i = 0; i <= options.ecdf_points; ++i) {
        std::string name = "q";
        name += format_axis_value(100.0 * static_cast<double>(i) /
                                  static_cast<double>(options.ecdf_points));
        name += "_s";
        header.push_back(std::move(name));
      }
    }
    if (options.compare_theory) {
      header.insert(header.end(), {"theory_mean", "abs_err", "sigma_err"});
    }
  } else if (scenario.testbed) {
    // Testbed families swap the bundle column for the state-plane staleness
    // diagnostics: mean/max peer state age observed at decision points, and
    // state packets lost per realization.
    header.insert(header.end(), {"mean_s", "ci95_s", "stderr_s", "reps", "mean_failures",
                                 "mean_tasks_moved", "state_age_mean_s", "state_age_max_s",
                                 "state_lost"});
    if (options.quantiles) {
      header.insert(header.end(), {"p50_s", "p90_s", "p99_s"});
    }
    if (options.ecdf_points > 0) {
      for (std::size_t i = 0; i <= options.ecdf_points; ++i) {
        std::string name = "q";
        name += format_axis_value(100.0 * static_cast<double>(i) /
                                  static_cast<double>(options.ecdf_points));
        name += "_s";
        header.push_back(std::move(name));
      }
    }
  } else {
    header.insert(header.end(), {"mean_s", "ci95_s", "stderr_s", "reps", "mean_failures",
                                 "mean_tasks_moved", "mean_bundles"});
    if (options.quantiles) {
      header.insert(header.end(), {"p50_s", "p90_s", "p99_s"});
    }
    if (options.ecdf_points > 0) {
      // Quantile-function columns on a uniform grid: together they ARE the
      // point's ECDF at resolution K (q0_s = min, q100_s = max).
      for (std::size_t i = 0; i <= options.ecdf_points; ++i) {
        // Built with += (not operator+ chains): gcc-12's -Wrestrict trips on
        // the inlined concatenation otherwise.
        std::string name = "q";
        name += format_axis_value(100.0 * static_cast<double>(i) /
                                  static_cast<double>(options.ecdf_points));
        name += "_s";
        header.push_back(std::move(name));
      }
    }
    if (options.compare_theory) {
      header.insert(header.end(), {"theory_mean", "abs_err", "sigma_err"});
    }
    if (vr_active) {
      header.insert(header.end(), vr_columns().begin(), vr_columns().end());
    }
  }
  SweepResult result{util::TextTable(header), {}};

  const auto start = std::chrono::steady_clock::now();
  for (const auto& assignment : grid) {
    RawConfig raw = base;
    SweepOptions point_options = options;
    for (const auto& [key, value] : assignment) {
      assign(key, value, raw, point_options);
    }
    const Config config = scenario.schema.resolve(raw);

    std::vector<std::string> row;
    for (const auto& [key, value] : assignment) {
      (void)key;
      row.push_back(value);
    }
    if (options.dry_run) {
      const mc::ScenarioConfig built = scenario.build(config);
      row.push_back(built.policy->name());
      std::size_t shown = point_options.replications;
      if (!point_options.replications_explicit) {
        if (scenario.steady) shown = 1;          // one batch-means window
        if (scenario.testbed) shown = 60;        // paper's realization count
      }
      row.push_back(std::to_string(shown));
    } else if (scenario.steady) {
      mc::SteadyConfig steady_config;
      steady_config.replications =
          point_options.replications_explicit ? point_options.replications : 1;
      steady_config.threads = point_options.threads;
      steady_config.seed = point_options.seed;
      steady_config.collect_samples = options.ecdf_points > 0;
      steady_config.obs = options.obs;
      const mc::ScenarioConfig built = scenario.build(config);
      const mc::SteadyResult steady = mc::run_steady(built, steady_config);
      row.push_back(util::format_double(steady.mean(), 3));
      row.push_back(util::format_double(steady.ci95(), 3));
      row.push_back(util::format_double(steady.std_error(), 3));
      row.push_back(std::to_string(steady_config.replications));
      row.push_back(std::to_string(steady.batch.observations));
      row.push_back(std::to_string(steady.warmup));
      row.push_back(util::format_double(steady.batch.lag1, 3));
      row.push_back(util::format_double(steady.mean_queue_length, 3));
      if (options.quantiles) {
        row.push_back(util::format_double(steady.p50, 3));
        row.push_back(util::format_double(steady.p90, 3));
        row.push_back(util::format_double(steady.p99, 3));
      }
      if (options.ecdf_points > 0) {
        for (std::size_t i = 0; i <= options.ecdf_points; ++i) {
          const double q = static_cast<double>(i) / static_cast<double>(options.ecdf_points);
          row.push_back(util::format_double(stoch::quantile_sorted(steady.samples, q), 3));
        }
      }
      if (options.compare_theory) {
        append_open_theory_cells(built, steady, row);
      }
    } else if (scenario.testbed) {
      const std::size_t reps =
          point_options.replications_explicit ? point_options.replications : 60;
      testbed::TestbedConfig tb = testbed::from_scenario(scenario.build(config));
      const testbed::ExperimentSummary summary = testbed::run_experiment(
          tb, reps, point_options.seed, point_options.threads, options.obs);
      row.push_back(util::format_double(summary.mean(), 3));
      row.push_back(util::format_double(summary.ci95(), 3));
      row.push_back(util::format_double(summary.completion.std_error(), 3));
      row.push_back(std::to_string(reps));
      row.push_back(util::format_double(summary.mean_failures, 2));
      row.push_back(util::format_double(summary.mean_tasks_moved, 2));
      row.push_back(util::format_double(summary.state_age.mean(), 3));
      row.push_back(util::format_double(summary.state_age.max(), 3));
      row.push_back(util::format_double(summary.mean_state_lost, 1));
      if (options.quantiles) {
        row.push_back(util::format_double(stoch::quantile_sorted(summary.samples, 0.50), 3));
        row.push_back(util::format_double(stoch::quantile_sorted(summary.samples, 0.90), 3));
        row.push_back(util::format_double(stoch::quantile_sorted(summary.samples, 0.99), 3));
      }
      if (options.ecdf_points > 0) {
        for (std::size_t i = 0; i <= options.ecdf_points; ++i) {
          const double q = static_cast<double>(i) / static_cast<double>(options.ecdf_points);
          row.push_back(util::format_double(stoch::quantile_sorted(summary.samples, q), 3));
        }
      }
    } else {
      mc::McConfig mc_config;
      mc_config.replications = point_options.replications;
      mc_config.threads = point_options.threads;
      mc_config.seed = point_options.seed;
      mc_config.collect_samples = options.ecdf_points > 0;
      mc_config.vr = point_options.vr;
      mc_config.cv_pilot = point_options.cv_pilot;
      mc_config.obs = options.obs;
      const mc::ScenarioConfig built = scenario.build(config);
      const mc::McResult mc_result = mc::run_monte_carlo(built, mc_config);
      row.push_back(util::format_double(mc_result.mean(), 3));
      row.push_back(util::format_double(mc_result.ci95(), 3));
      row.push_back(util::format_double(mc_result.std_error(), 3));
      row.push_back(std::to_string(mc_config.replications));
      row.push_back(util::format_double(mc_result.mean_failures, 2));
      row.push_back(util::format_double(mc_result.mean_tasks_moved, 2));
      row.push_back(util::format_double(mc_result.mean_bundles, 2));
      if (options.quantiles) {
        row.push_back(util::format_double(mc_result.p50, 3));
        row.push_back(util::format_double(mc_result.p90, 3));
        row.push_back(util::format_double(mc_result.p99, 3));
      }
      if (options.ecdf_points > 0) {
        for (std::size_t i = 0; i <= options.ecdf_points; ++i) {
          const double q = static_cast<double>(i) / static_cast<double>(options.ecdf_points);
          row.push_back(util::format_double(mc_result.sample_quantile(q), 3));
        }
      }
      if (options.compare_theory) {
        append_theory_cells(built, mc_result, row);
      }
      if (vr_active) {
        append_vr_cells(mc_result, row);
      }
    }
    result.table.add_row(std::move(row));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  result.metadata.scenario = scenario.name;
  result.metadata.seed = options.seed;
  result.metadata.replications = options.replications;
  result.metadata.threads = options.threads;
  result.metadata.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  return result;
}

}  // namespace lbsim::cli
