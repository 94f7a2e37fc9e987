#include "cli/lbsim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/artifacts.hpp"
#include "cli/config.hpp"
#include "cli/output.hpp"
#include "cli/registry.hpp"
#include "cli/sweep.hpp"
#include "cli/validate.hpp"
#include "core/baseline.hpp"
#include "core/excess.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "markov/two_node_mean.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "mc/steady.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "testbed/config.hpp"
#include "testbed/experiment.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace lbsim::cli {
namespace {

constexpr const char* kUsage = R"(lbsim - load-balancing experiment runner (Dhakal et al., IPDPS 2006 reproduction)

Usage:
  lbsim list [scenario]             registered scenarios, or one scenario's keys
  lbsim run <scenario> [key=value ...]
        [--config=FILE] [--engine=mc|testbed] [--reps=N] [--threads=N]
        [--seed=S] [--vr=none|antithetic|cv|both] [--cv-pilot=N]
        [--trace=FILE[:jsonl|chrome]] [--metrics=FILE]
        [--format=table|csv|json] [--out=FILE]
        --trace writes the structured event trace (task/service/transfer/
        churn/env records, replications in order behind rep_begin markers) as
        JSONL or the Chrome trace-event JSON Perfetto opens; --metrics dumps
        the merged counters/gauges/histograms registry as JSON. Both are
        bit-identity-neutral: the run's statistics are unchanged.
        --vr selects the variance-reduced estimator (mc engine, finite
        horizon): antithetic mirrors replication pairs, cv adjusts by a
        churn-free surrogate under common random numbers with its exact mean
        from the theory oracle, both composes them. Adds vr/adj_mean_s/
        adj_ci95_s/vr_ratio columns; raw statistics stay alongside. An
        inadmissible component falls back with a note ("!" on the mode)
  lbsim sweep <scenario> [key=v1,v2 | key=lo:hi:step ...]
        [--config=FILE] [--reps=N] [--threads=N] [--seed=S] [--dry-run]
        [--vr=MODE] [--cv-pilot=N] [--metrics=FILE]
        [--quantiles] [--ecdf[=K]] [--compare=theory]
        [--format=table|csv|json] [--out=FILE]
        --metrics dumps one registry merged over every grid point
        --quantiles adds p50/p90/p99 columns (streaming P2 estimates);
        --ecdf=K adds the empirical quantile function at K+1 evenly spaced
        probabilities (exact, collects samples); --compare=theory joins the
        exact-solver prediction (theory_mean, abs_err, sigma_err) onto every
        grid point, with "-" where no solver applies; mc.vr works as a sweep
        axis (mc.vr=none,antithetic,cv,both compares estimators per point)
  lbsim validate [family] [--strict] [--reps=N] [--seed=S] [--threads=N]
        [--sigma=F] [--ks-slack=F] [--format=table|csv|json] [--out=FILE]
        runs every registry family (or one) against the exact solvers at a
        fixed seed; exits nonzero when a z-score or KS gate fails. --strict is
        the CI configuration (1500 reps, 4-sigma mean gate). Steady-state
        points check the stationary M/M/1 sojourn law instead of a
        completion-time solver
  lbsim reproduce <artefact>
        [--quick] [--golden-only] [--reps=N] [--realizations=N] [--seed=S]
        [--format=table|csv|json] [--out=FILE]
        regenerates a paper table or figure, or an ablation; `lbsim list`
        names every artefact
  lbsim perf [--quick] [--profile] [--out=FILE]
        timing baseline (perf_solver/perf_mc/perf_des, many-node
        perf_mc_n16/32/64 and policy n-scaling perf_mc_n256, variance-reduced
        effective throughput perf_mc_vr, env-modulated perf_mc_env,
        topology-restricted perf_mc_graph, open-system perf_mc_steady,
        lossy state-plane perf_testbed_lossy); --profile appends a per-bench
        phase breakdown (setup, of which RNG streams / event loop / stats
        fold wall time) from the engines' self-profiling.
        scripts/compare_bench.py gates an --out file against
        BENCH_baseline.json

Global flags: --log-level=trace|debug|info|warn|error|off (default warn) and
--help. Any other flag a subcommand does not list above is an error.

Scenario keys are INI-style (`lbsim list <scenario>` documents them); a
--config file may also carry them, with command-line key=value pairs winning.
The reserved keys `mc.reps`, `mc.threads`, `mc.seed`, `mc.vr`, `mc.cv-pilot`,
and `engine` select the execution engine rather than the scenario. A seed
(`--seed=S`, `mc.seed`) is an integer from 1 to 18446744073709551615: omit it
for the command's default, which the output's metadata prints.
)";

/// Throws ConfigError(kUnknownKey), with a did-you-mean suggestion, on any
/// flag outside `known` plus the global --log-level and --help. Each
/// subcommand passes exactly the flags kUsage lists for it, so a typo such
/// as --rep=5 fails instead of being silently ignored.
void reject_unknown_flags(const util::CliArgs& args, const std::string& command,
                          std::vector<std::string> known) {
  known.insert(known.end(), {"log-level", "help"});
  for (const std::string& flag : args.flag_names()) {
    if (std::find(known.begin(), known.end(), flag) != known.end()) continue;
    std::string msg = "lbsim " + command + " has no flag '--" + flag + "'";
    if (const std::string best = closest_match(flag, known); !best.empty()) {
      msg += " (did you mean '--" + best + "'?)";
    }
    throw ConfigError(ConfigError::Kind::kUnknownKey, flag, msg);
  }
}

/// Emission sink: --out writes the formatted table to a file, keeping the
/// human narration on stdout.
void emit(const util::CliArgs& args, const RunMetadata& meta, const util::TextTable& table,
          std::ostream& out) {
  const std::string path = args.get_string("out", "");
  std::string format = args.get_string("format", path.empty() ? "table" : "csv");
  if (format != "table" && format != "csv" && format != "json") {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "format",
                      "--format must be table, csv, or json");
  }
  const auto write = [&](std::ostream& os) {
    if (format == "csv") {
      write_csv(os, meta, table);
    } else if (format == "json") {
      write_json(os, meta, table);
    } else {
      table.print(os);
    }
  };
  if (path.empty()) {
    write(out);
    return;
  }
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write to '" + path + "'");
  write(file);
  out << "wrote " << format << " to " << path << "\n";
}

/// The observability sinks of `lbsim run` (sweep takes --metrics only):
/// `--trace=FILE[:jsonl|chrome]` and `--metrics=FILE`. Attaching them never
/// perturbs the run — no RNG draws, bit-identical statistics.
struct ObsOptions {
  std::string trace_path;
  std::string trace_format = "jsonl";
  std::string metrics_path;
};

ObsOptions parse_obs_options(const util::CliArgs& args) {
  ObsOptions options;
  options.metrics_path = args.get_string("metrics", "");
  std::string spec = args.get_string("trace", "");
  if (args.has("trace") && spec.empty()) {
    throw ConfigError(ConfigError::Kind::kSyntax, "trace",
                      "--trace needs a file path (FILE[:jsonl|chrome])");
  }
  if (!spec.empty()) {
    // Only a recognised exporter suffix splits off, so plain paths with
    // colons (e.g. Windows drives, timestamps) pass through untouched.
    if (const std::size_t colon = spec.rfind(':'); colon != std::string::npos) {
      const std::string suffix = spec.substr(colon + 1);
      if (suffix == "jsonl" || suffix == "chrome") {
        options.trace_format = suffix;
        spec.resize(colon);
      }
    }
    if (spec.empty()) {
      throw ConfigError(ConfigError::Kind::kSyntax, "trace",
                        "--trace needs a file path before the ':" + options.trace_format +
                            "' suffix");
    }
    options.trace_path = spec;
  }
  return options;
}

void write_trace_file(const ObsOptions& options, const obs::TraceBuffer& trace,
                      const obs::TraceMeta& trace_meta, std::ostream& out) {
  std::ofstream file(options.trace_path);
  if (!file) throw std::runtime_error("cannot write to '" + options.trace_path + "'");
  if (options.trace_format == "chrome") {
    obs::write_chrome(file, trace);
  } else {
    obs::write_jsonl(file, trace, &trace_meta);
  }
  out << "wrote " << trace.size() << " trace records (" << options.trace_format << ") to "
      << options.trace_path << "\n";
}

void write_metrics_file(const std::string& path, const obs::Registry& metrics,
                        const RunMetadata& meta, std::ostream& out) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write to '" + path + "'");
  file << "{\n  \"metadata\": {";
  const auto items = meta.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    file << (i != 0 ? ",\n" : "\n") << "    \"" << json_escape(items[i].first) << "\": \""
         << json_escape(items[i].second) << "\"";
  }
  file << "\n  },\n  \"metrics\": ";
  metrics.write_json(file, 2);
  file << "\n}\n";
  out << "wrote metrics to " << path << "\n";
}

std::string joined_command(int argc, const char* const* argv) {
  std::ostringstream os;
  os << "lbsim";
  for (int i = 1; i < argc; ++i) os << ' ' << argv[i];
  return os.str();
}

/// Splits the reserved engine keys out of a raw scenario config.
struct EngineOptions {
  std::string engine = "mc";
  std::size_t replications = 0;  // 0 = engine default
  unsigned threads = 0;
  std::uint64_t seed = 0;        // 0 = engine default
  mc::VrMode vr = mc::VrMode::kNone;
  std::size_t cv_pilot = 0;      // 0 = engine auto
};

EngineOptions extract_engine_options(RawConfig& raw, const util::CliArgs& args) {
  EngineOptions options;
  const auto take = [&raw](const std::string& key) -> std::string {
    const auto it = raw.values.find(key);
    if (it == raw.values.end()) return "";
    std::string value = it->second;
    raw.values.erase(it);
    return value;
  };
  if (const std::string v = take("engine"); !v.empty()) options.engine = v;
  if (const std::string v = take("mc.reps"); !v.empty()) {
    options.replications = parse_reps(v, "mc.reps");
  }
  if (const std::string v = take("mc.threads"); !v.empty()) {
    options.threads = parse_threads(v, "mc.threads");
  }
  if (const std::string v = take("mc.seed"); !v.empty()) {
    options.seed = parse_seed(v, "mc.seed");
  }
  std::string vr_text = take("mc.vr");
  std::string cv_pilot_text = take("mc.cv-pilot");
  // Command-line flags win over config-file keys.
  options.engine = args.get_string("engine", options.engine);
  if (args.has("reps")) {
    options.replications = parse_reps(args.get_string("reps", ""), "--reps");
  }
  if (args.has("threads")) {
    options.threads = parse_threads(args.get_string("threads", ""), "--threads");
  }
  if (args.has("seed")) options.seed = parse_seed(args.get_string("seed", ""), "--seed");
  vr_text = args.get_string("vr", vr_text);
  cv_pilot_text = args.get_string("cv-pilot", cv_pilot_text);
  if (!vr_text.empty() && !mc::parse_vr_mode(vr_text, options.vr)) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "vr",
                      "--vr must be none, antithetic, cv, or both (got '" + vr_text + "')");
  }
  if (!cv_pilot_text.empty()) {
    const long long pilot = parse_int(cv_pilot_text, "cv-pilot");
    if (pilot < 0) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "cv-pilot",
                        "--cv-pilot must be >= 0 (0 = auto)");
    }
    options.cv_pilot = static_cast<std::size_t>(pilot);
  }
  if (options.engine != "mc" && options.engine != "testbed") {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "engine",
                      "engine must be 'mc' or 'testbed'");
  }
  if (options.engine != "mc" && options.vr != mc::VrMode::kNone) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "vr", "--vr belongs to the mc engine");
  }
  return options;
}

/// Gathers the scenario name + raw key=value config for run/sweep: positional
/// overrides layered over an optional --config file.
struct ScenarioInvocation {
  const ScenarioSpec* spec = nullptr;
  RawConfig raw;
  std::vector<std::string> extra;  ///< positionals that are not key=value
};

ScenarioInvocation parse_scenario_invocation(const util::CliArgs& args) {
  ScenarioInvocation invocation;
  if (const std::string path = args.get_string("config", ""); !path.empty()) {
    invocation.raw = parse_ini_file(path);
  }
  std::string name;
  const auto& positional = args.positional();
  for (std::size_t i = 1; i < positional.size(); ++i) {
    const std::string& arg = positional[i];
    if (arg.find('=') != std::string::npos) {
      invocation.extra.push_back(arg);
    } else if (name.empty()) {
      name = arg;
    } else {
      throw ConfigError(ConfigError::Kind::kSyntax, arg,
                        "unexpected positional argument '" + arg + "'");
    }
  }
  if (name.empty()) {
    const auto it = invocation.raw.values.find("scenario");
    if (it != invocation.raw.values.end()) {
      name = it->second;
    } else {
      throw ConfigError(ConfigError::Kind::kSyntax, "scenario",
                        "no scenario named (positional argument or 'scenario' config key)");
    }
  }
  invocation.raw.values.erase("scenario");
  invocation.spec = &find_scenario(name);
  return invocation;
}

int cmd_list(const util::CliArgs& args, std::ostream& out) {
  reject_unknown_flags(args, "list", {});
  const auto& positional = args.positional();
  if (positional.size() > 1) {
    const ScenarioSpec& spec = find_scenario(positional[1]);
    out << spec.name << " - " << spec.summary << "\n\n";
    util::TextTable table({"key", "type", "default", "description"});
    for (const OptionSpec& option : spec.schema.options()) {
      table.add_row({option.key, to_string(option.type),
                     option.default_value.empty() ? "-" : option.default_value,
                     option.description});
    }
    table.print(out);
    return 0;
  }

  out << "Scenarios (lbsim run/sweep <name>; `lbsim list <name>` shows keys):\n\n";
  util::TextTable scenarios({"scenario", "keys", "summary"});
  for (const ScenarioSpec& spec : scenario_registry()) {
    scenarios.add_row({spec.name, std::to_string(spec.schema.options().size()), spec.summary});
  }
  scenarios.print(out);

  out << "\nPaper artefacts and ablations (lbsim reproduce <name>):\n\n";
  util::TextTable artifacts({"artefact", "summary"});
  for (const std::string& name : artifact_names()) {
    artifacts.add_row({name, artifact_summary(name)});
  }
  artifacts.print(out);
  return 0;
}

int cmd_run(int argc, const char* const* argv, const util::CliArgs& args, std::ostream& out,
            std::ostream& err) {
  reject_unknown_flags(args, "run",
                       {"config", "engine", "reps", "threads", "seed", "vr", "cv-pilot",
                        "trace", "metrics", "format", "out"});
  ScenarioInvocation invocation = parse_scenario_invocation(args);
  for (const std::string& assignment : invocation.extra) {
    apply_override(invocation.raw, assignment);
  }
  EngineOptions engine = extract_engine_options(invocation.raw, args);
  const Config config = invocation.spec->schema.resolve(invocation.raw);
  mc::ScenarioConfig scenario = invocation.spec->build(config);

  // Observability sinks: in-memory buffers the engines fill (every family),
  // flushed to files after the result table. Zero RNG draws, so attaching
  // them leaves every statistic bit-identical.
  const ObsOptions obs_options = parse_obs_options(args);
  obs::TraceBuffer trace_buffer;
  obs::Registry metrics_registry;
  mc::ObsSinks sinks;
  if (!obs_options.trace_path.empty()) sinks.trace = &trace_buffer;
  if (!obs_options.metrics_path.empty()) sinks.metrics = &metrics_registry;
  const auto flush_obs = [&](const RunMetadata& run_meta, std::ostream& os) {
    if (sinks.trace != nullptr) {
      obs::TraceMeta trace_meta;
      trace_meta.scenario = invocation.spec->name;
      trace_meta.seed = run_meta.seed;
      trace_meta.replications = run_meta.replications;
      trace_meta.git_revision = git_revision();
      write_trace_file(obs_options, trace_buffer, trace_meta, os);
    }
    if (sinks.metrics != nullptr) {
      write_metrics_file(obs_options.metrics_path, metrics_registry, run_meta, os);
    }
  };

  if (invocation.spec->testbed) {
    // Emulation family: the testbed engine is the only one with a state plane
    // to degrade, so the family always routes there.
    if (engine.vr != mc::VrMode::kNone) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "vr",
                        "--vr belongs to the mc engine; scenario '" + invocation.spec->name +
                            "' runs on the testbed engine");
    }
    engine.engine = "testbed";
  }

  if (invocation.spec->steady) {
    // Infinite-horizon family: the steady-state engine is the only one whose
    // semantics (stop at N completions, not drain) are defined for it.
    if (engine.engine != "mc") {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "engine",
                        "scenario '" + invocation.spec->name +
                            "' is infinite-horizon; only the mc (steady-state) engine "
                            "runs it");
    }
    if (engine.vr != mc::VrMode::kNone) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "vr",
                        "--vr applies to finite-horizon replications; scenario '" +
                            invocation.spec->name + "' is infinite-horizon");
    }
    mc::SteadyConfig steady_config;
    if (engine.replications != 0) steady_config.replications = engine.replications;
    if (engine.seed != 0) steady_config.seed = engine.seed;
    steady_config.threads = engine.threads;
    steady_config.obs = sinks;
    const std::string policy_name = scenario.policy->name();
    const auto steady_start = std::chrono::steady_clock::now();
    const mc::SteadyResult result = mc::run_steady(scenario, steady_config);
    util::TextTable table({"scenario", "policy", "engine", "reps", "tasks",
                           "mean_sojourn_s", "ci95_s", "stderr_s", "p50_s", "p90_s",
                           "p99_s", "warmup", "batches", "lag1", "horizon_s",
                           "mean_queue"});
    table.add_row({invocation.spec->name, policy_name, "mc-steady",
                   std::to_string(steady_config.replications),
                   std::to_string(result.batch.observations),
                   util::format_double(result.mean(), 4),
                   util::format_double(result.ci95(), 4),
                   util::format_double(result.std_error(), 4),
                   util::format_double(result.p50, 4), util::format_double(result.p90, 4),
                   util::format_double(result.p99, 4), std::to_string(result.warmup),
                   std::to_string(result.batch.batches),
                   util::format_double(result.batch.lag1, 3),
                   util::format_double(result.horizon_time, 1),
                   util::format_double(result.mean_queue_length, 3)});
    RunMetadata meta;
    meta.command = joined_command(argc, argv);
    meta.scenario = invocation.spec->name;
    meta.threads = engine.threads;
    meta.seed = steady_config.seed;
    meta.replications = steady_config.replications;
    if (result.batch.correlated) {
      meta.extra.emplace_back("warning",
                              "batch means are lag-1 correlated (|" +
                                  util::format_double(result.batch.lag1, 3) + "| > " +
                                  util::format_double(result.batch.lag1_gate, 3) +
                                  "); widen steady.tasks for an honest CI");
    }
    meta.wall_seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                            std::chrono::steady_clock::now() - steady_start)
                            .count();
    emit(args, meta, table, out);
    flush_obs(meta, out);
    return 0;
  }

  std::vector<std::string> header = {"scenario", "policy", "engine", "reps", "mean_s",
                                     "ci95_s", "stderr_s", "min_s", "max_s", "p50_s",
                                     "p90_s", "p99_s", "mean_failures",
                                     "mean_tasks_moved", "mean_bundles"};
  if (engine.vr != mc::VrMode::kNone) {
    header.insert(header.end(), vr_columns().begin(), vr_columns().end());
  }
  if (engine.engine == "testbed") {
    header.insert(header.end(), {"state_age_mean_s", "state_age_max_s", "state_lost"});
  }
  util::TextTable table(header);
  RunMetadata meta;
  meta.command = joined_command(argc, argv);
  meta.scenario = invocation.spec->name;
  meta.threads = engine.threads;

  std::string warning;
  const auto start = std::chrono::steady_clock::now();
  if (engine.engine == "mc") {
    mc::McConfig mc_config;
    if (engine.replications != 0) mc_config.replications = engine.replications;
    if (engine.seed != 0) mc_config.seed = engine.seed;
    mc_config.threads = engine.threads;
    mc_config.vr = engine.vr;
    mc_config.cv_pilot = engine.cv_pilot;
    mc_config.obs = sinks;
    const std::string policy_name = scenario.policy->name();
    const mc::McResult result = mc::run_monte_carlo(scenario, mc_config);
    std::vector<std::string> row = {invocation.spec->name, policy_name, "mc",
                                    std::to_string(mc_config.replications),
                                    util::format_double(result.mean(), 3),
                                    util::format_double(result.ci95(), 3),
                                    util::format_double(result.std_error(), 3),
                                    util::format_double(result.completion.min(), 3),
                                    util::format_double(result.completion.max(), 3),
                                    util::format_double(result.p50, 3),
                                    util::format_double(result.p90, 3),
                                    util::format_double(result.p99, 3),
                                    util::format_double(result.mean_failures, 2),
                                    util::format_double(result.mean_tasks_moved, 2),
                                    util::format_double(result.mean_bundles, 2)};
    if (engine.vr != mc::VrMode::kNone) {
      append_vr_cells(result, row);
      note_vr_metadata(result, meta);
      if (!result.vr.fallback.empty()) {
        out << "note: " << result.vr.fallback << "\n";
      }
    }
    table.add_row(std::move(row));
    meta.seed = mc_config.seed;
    meta.replications = mc_config.replications;
    warning = degeneration_warning(*scenario.policy, scenario.params, scenario.workloads,
                                   result.mean_tasks_moved);
  } else {
    testbed::TestbedConfig tb = testbed::from_scenario(std::move(scenario));
    const std::size_t realizations = engine.replications != 0 ? engine.replications : 60;
    const std::uint64_t seed = engine.seed != 0 ? engine.seed : 0xbed2006;
    const std::string policy_name = tb.policy->name();
    const testbed::ExperimentSummary result =
        testbed::run_experiment(tb, realizations, seed, engine.threads, sinks);
    table.add_row({invocation.spec->name, policy_name, "testbed",
                   std::to_string(realizations), util::format_double(result.mean(), 3),
                   util::format_double(result.ci95(), 3),
                   util::format_double(result.completion.std_error(), 3),
                   util::format_double(result.completion.min(), 3),
                   util::format_double(result.completion.max(), 3), "-", "-", "-",
                   util::format_double(result.mean_failures, 2),
                   util::format_double(result.mean_tasks_moved, 2), "-",
                   util::format_double(result.state_age.mean(), 3),
                   util::format_double(result.state_age.max(), 3),
                   util::format_double(result.mean_state_lost, 1)});
    meta.seed = seed;
    meta.replications = realizations;
    warning =
        degeneration_warning(*tb.policy, tb.params, tb.workloads, result.mean_tasks_moved);
  }
  meta.wall_seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  emit(args, meta, table, out);
  flush_obs(meta, out);
  if (!warning.empty()) err << "lbsim: warning: " << warning << "\n";
  return 0;
}

int cmd_sweep(int argc, const char* const* argv, const util::CliArgs& args,
              std::ostream& out) {
  reject_unknown_flags(args, "sweep",
                       {"config", "reps", "threads", "seed", "dry-run", "vr", "cv-pilot",
                        "metrics", "quantiles", "ecdf", "compare", "format", "out"});
  ScenarioInvocation invocation = parse_scenario_invocation(args);
  std::vector<SweepAxis> axes;
  for (const std::string& assignment : invocation.extra) {
    SweepAxis axis = parse_axis(assignment);
    if (axis.values.size() == 1) {
      // Single-valued "axes" are fixed overrides, not table columns. Reserved
      // mc.* keys land in raw too and are extracted just below.
      invocation.raw.set(axis.key, axis.values[0]);
    } else {
      axes.push_back(std::move(axis));
    }
  }
  if (axes.empty()) {
    throw ConfigError(ConfigError::Kind::kSyntax, "sweep",
                      "no sweep axis given (expected key=v1,v2 or key=lo:hi:step)");
  }

  SweepOptions options;
  const std::string metrics_path = args.get_string("metrics", "");
  obs::Registry metrics_registry;
  if (!metrics_path.empty()) options.obs.metrics = &metrics_registry;
  EngineOptions engine = extract_engine_options(invocation.raw, args);
  if (engine.engine != "mc" && !invocation.spec->testbed) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "engine",
                      "lbsim sweep drives the MC engine only");
  }
  if (engine.replications != 0) {
    options.replications = engine.replications;
    options.replications_explicit = true;
  }
  if (engine.seed != 0) options.seed = engine.seed;
  options.threads = engine.threads;
  options.vr = engine.vr;
  options.cv_pilot = engine.cv_pilot;
  options.dry_run = args.get_bool("dry-run", false);
  options.quantiles = args.has("quantiles") && args.get_bool("quantiles", true);
  if (args.has("ecdf")) {
    // Bare --ecdf keeps the default decile grid; --ecdf=K picks the resolution.
    const std::string spec = args.get_string("ecdf", "");
    const long long k = (spec.empty() || spec == "true") ? 10 : parse_int(spec, "ecdf");
    if (k < 2 || k > 1000) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "ecdf",
                        "--ecdf resolution must be in [2, 1000]");
    }
    options.ecdf_points = static_cast<std::size_t>(k);
  }
  if (const std::string compare = args.get_string("compare", ""); !compare.empty()) {
    if (compare != "theory") {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "compare",
                        "--compare supports 'theory' only");
    }
    options.compare_theory = true;
  }

  SweepResult result = run_sweep(*invocation.spec, invocation.raw, axes, options);
  result.metadata.command = joined_command(argc, argv);
  if (options.dry_run) {
    out << "dry run: " << result.table.rows() << " grid points over " << axes.size()
        << " axes (nothing executed)\n";
  }
  emit(args, result.metadata, result.table, out);
  if (options.obs.metrics != nullptr && !options.dry_run) {
    write_metrics_file(metrics_path, metrics_registry, result.metadata, out);
  }
  return 0;
}

int cmd_validate(int argc, const char* const* argv, const util::CliArgs& args,
                 std::ostream& out) {
  reject_unknown_flags(args, "validate",
                       {"strict", "reps", "seed", "threads", "sigma", "ks-slack", "format",
                        "out"});
  ValidationOptions options;
  const auto& positional = args.positional();
  if (positional.size() > 2) {
    throw ConfigError(ConfigError::Kind::kSyntax, "validate",
                      "usage: lbsim validate [family] [--strict]");
  }
  if (positional.size() == 2) options.family = positional[1];
  options.strict = args.has("strict") && args.get_bool("strict", true);
  if (args.has("reps")) {
    options.replications = parse_reps(args.get_string("reps", ""), "--reps");
  }
  if (args.has("seed")) options.seed = parse_seed(args.get_string("seed", ""), "--seed");
  if (args.has("threads")) {
    options.threads = parse_threads(args.get_string("threads", ""), "--threads");
  }
  // A NaN or infinite gate would pass every point, so both are refused; a
  // finite negative slack tightens the KS gate.
  if (args.has("sigma")) {
    options.sigma_gate = args.get_double("sigma", 0.0);
    if (!(std::isfinite(options.sigma_gate) && options.sigma_gate > 0.0)) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "sigma",
                        "--sigma must be a finite number > 0");
    }
  }
  options.ks_slack = args.get_double("ks-slack", options.ks_slack);
  if (!std::isfinite(options.ks_slack)) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "ks-slack",
                      "--ks-slack must be a finite number");
  }

  ValidationReport report = run_validation(options);
  report.metadata.command = joined_command(argc, argv);
  emit(args, report.metadata, report.table, out);
  out << "\nvalidate: " << report.checked << " theory-checked, " << report.skipped
      << " past the solver boundary, " << report.failures << " failure(s)\n";
  if (!report.passed()) {
    out << "validate FAILED: the MC engine disagrees with the exact solvers beyond "
           "the statistical gates\n";
    return 1;
  }
  out << "validate passed\n";
  return 0;
}

int cmd_reproduce(int argc, const char* const* argv, const util::CliArgs& args,
                  std::ostream& out) {
  reject_unknown_flags(args, "reproduce",
                       {"quick", "golden-only", "reps", "realizations", "seed", "format",
                        "out"});
  const auto& positional = args.positional();
  if (positional.size() < 2) {
    throw ConfigError(ConfigError::Kind::kSyntax, "artefact",
                      "usage: lbsim reproduce <artefact> (`lbsim list` names them)");
  }
  ArtifactOptions options;
  options.quick = args.has("quick") && args.get_bool("quick", true);
  options.golden_only = args.has("golden-only") && args.get_bool("golden-only", true);
  if (args.has("reps")) options.mc_reps = parse_reps(args.get_string("reps", ""), "--reps");
  if (args.has("realizations")) {
    options.realizations = parse_reps(args.get_string("realizations", ""), "--realizations");
  }
  if (args.has("seed")) options.seed = parse_seed(args.get_string("seed", ""), "--seed");
  options.format = args.get_string("format", "table");
  if (options.format != "table" && options.format != "csv" && options.format != "json") {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "format",
                      "--format must be table, csv, or json");
  }

  const std::string path = args.get_string("out", "");
  if (!path.empty()) {
    // A file target defaults to CSV, but an explicit --format=table is kept.
    if (!args.has("format")) options.format = "csv";
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write to '" + path + "'");
    (void)reproduce_artifact(positional[1], options, file);
    out << "wrote " << options.format << " to " << path << "\n";
    return 0;
  }
  (void)reproduce_artifact(positional[1], options, out);
  (void)argc;
  (void)argv;
  return 0;
}

int cmd_perf(int argc, const char* const* argv, const util::CliArgs& args, std::ostream& out) {
  reject_unknown_flags(args, "perf", {"quick", "profile", "out"});
  if (args.positional().size() > 1) {
    throw ConfigError(ConfigError::Kind::kSyntax, "perf",
                      "usage: lbsim perf [--quick] [--profile] [--out=FILE]");
  }
  const bool quick = args.has("quick");
  const bool profile = args.has("profile");

  // --profile: the engines' per-phase self-profiling (setup, with its RNG
  // stream part / event loop and its cost per fired event / stats fold / the
  // policy hooks inside setup and loop), printed as a separate table so the
  // bench columns — and the baseline format scripts/compare_bench.py reads —
  // stay fixed. The breakdown is the last timed run of each bench (best-of-k
  // reruns would sum phases across runs).
  util::TextTable profile_table({"bench", "setup_ms", "streams_ms", "loop_ms",
                                 "loop_ns_per_event", "fold_ms", "policy_ms", "reps"});
  obs::PhaseProfile bench_profile;
  const auto profile_sinks = [&] {
    mc::ObsSinks sinks;
    if (profile) sinks.profile = &bench_profile;
    return sinks;
  };
  const auto note_profile = [&](const std::string& bench) {
    if (!profile) return;
    const double events = static_cast<double>(bench_profile.events);
    const std::string per_event =
        events > 0.0 ? util::format_double(bench_profile.loop_s * 1e9 / events, 1) : "-";
    profile_table.add_row({bench, util::format_double(bench_profile.setup_s * 1000.0, 2),
                           util::format_double(bench_profile.streams_s * 1000.0, 2),
                           util::format_double(bench_profile.loop_s * 1000.0, 2), per_event,
                           util::format_double(bench_profile.fold_s * 1000.0, 2),
                           util::format_double(bench_profile.policy_s * 1000.0, 2),
                           std::to_string(bench_profile.reps)});
  };

  const auto time_once_ms = [](const auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  // Best-of-k timing: single-digit-millisecond rows are far too noisy for a
  // 30% regression gate, so every bench reports its fastest of `repeats` runs
  // (the run least disturbed by the OS).
  const auto time_ms = [&time_once_ms](int repeats, const auto& fn) {
    double best = time_once_ms(fn);
    for (int i = 1; i < repeats; ++i) best = std::min(best, time_once_ms(fn));
    return best;
  };

  util::TextTable table({"bench", "wall_ms", "work", "throughput_per_s"});
  RunMetadata meta;
  // The real work count behind every row ("replications.<bench>"): a perf
  // artefact must not claim a single bogus replication count for benches
  // that each run a different number.
  const auto note_reps = [&meta](const std::string& bench, std::size_t reps) {
    meta.extra.emplace_back("replications." + bench, std::to_string(reps));
  };
  const auto start = std::chrono::steady_clock::now();

  // Per-row noise tolerances baked into the baseline artefact
  // (scripts/compare_bench.py reads "tolerance.<bench>" metadata): rows whose
  // best-of-k wall time is a couple of milliseconds jitter far beyond the
  // 30% default gate, and perf_mc_vr folds a stochastic variance-ratio
  // estimate into its throughput.
  meta.extra.emplace_back("tolerance.perf_solver", "0.60");
  meta.extra.emplace_back("tolerance.perf_mc", "0.45");
  meta.extra.emplace_back("tolerance.perf_des", "0.60");
  meta.extra.emplace_back("tolerance.perf_mc_vr", "0.45");
  meta.extra.emplace_back("tolerance.perf_mc_steady", "0.45");
  meta.extra.emplace_back("tolerance.perf_testbed_lossy", "0.45");
  meta.extra.emplace_back("tolerance.perf_mc_traced", "0.45");

  // perf_mc_traced reports its overhead against perf_mc_n16's wall time.
  double untraced_n16_ms = 0.0;

  // perf_solver: one cold exact-solver evaluation at the pinned operating point.
  {
    double result = 0.0;
    const double ms = time_ms(7, [&] {
      markov::TwoNodeMeanSolver solver(markov::ipdps2006_params());
      result = solver.lbp1_mean(100, 60, 0, 0.35);
    });
    table.add_row({"perf_solver", util::format_double(ms, 2),
                   "lbp1_mean(100,60,K=0.35) = " + util::format_double(result, 2) + " s",
                   util::format_double(1000.0 / ms, 2)});
    note_reps("perf_solver", 1);
  }

  // perf_mc: the parallel Monte-Carlo engine on the paper scenario.
  {
    const std::size_t reps = quick ? 100 : 500;
    mc::McConfig mc_config;
    mc_config.replications = reps;
    mc_config.obs = profile_sinks();
    double mean = 0.0;
    const double ms = time_ms(3, [&] {
      bench_profile = {};
      mc::ScenarioConfig scenario =
          mc::make_two_node_scenario(markov::ipdps2006_params(), 100, 60,
                                     std::make_unique<core::Lbp1Policy>(0, 0.35));
      mean = mc::run_monte_carlo(scenario, mc_config).mean();
    });
    table.add_row({"perf_mc", util::format_double(ms, 2),
                   std::to_string(reps) + " reps, mean " + util::format_double(mean, 2) + " s",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps("perf_mc", reps);
    note_profile("perf_mc");
  }

  // perf_des: sequential discrete-event replications (single-threaded hot path).
  {
    const std::size_t reps = quick ? 20 : 100;
    double total = 0.0;
    const double ms = time_ms(3, [&] {
      total = 0.0;  // the lambda runs best-of-k times; only one run's sum counts
      mc::ScenarioConfig scenario =
          mc::make_two_node_scenario(markov::ipdps2006_params(), 100, 60,
                                     std::make_unique<core::Lbp2Policy>(1.0));
      des::Simulator sim;
      mc::ReplicationWorkspace workspace;
      mc::RunControls controls;
      controls.workspace = &workspace;
      for (std::size_t r = 0; r < reps; ++r) {
        total +=
            mc::run_scenario(scenario, 0x5eed2006, r, nullptr, sim, mc::SteadyProbe{}, controls)
                .completion_time;
      }
    });
    table.add_row({"perf_des", util::format_double(ms, 2),
                   std::to_string(reps) + " sequential runs, mean " +
                       util::format_double(total / static_cast<double>(reps), 2) + " s",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps("perf_des", reps);
  }

  // perf_mc_n{16,32,64}: the many-node-churn registry family at scale — the
  // regime where the exact solver is unavailable and MC throughput is the
  // product's speed limit.
  for (const std::size_t nodes : {std::size_t{16}, std::size_t{32}, std::size_t{64}}) {
    const std::size_t reps = quick ? 50 : 500;
    const ScenarioSpec& spec = find_scenario("many-node-churn");
    RawConfig raw;
    raw.set("nodes", std::to_string(nodes));
    mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
    mc::McConfig mc_config;
    mc_config.replications = reps;
    mc_config.obs = profile_sinks();
    double mean = 0.0;
    const int repeats = nodes <= 16 ? 3 : 2;
    const double ms = time_ms(repeats, [&] {
      bench_profile = {};
      mean = mc::run_monte_carlo(scenario, mc_config).mean();
    });
    if (nodes == 16) untraced_n16_ms = ms;
    const std::string name = "perf_mc_n" + std::to_string(nodes);
    table.add_row({name, util::format_double(ms, 2),
                   std::to_string(reps) + " reps x " + std::to_string(nodes) +
                       " nodes, mean " + util::format_double(mean, 2) + " s",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps(name, reps);
    note_profile(name);
  }

  // perf_mc_traced: perf_mc_n16 with every observability sink attached
  // (trace + metrics + profile, into in-memory buffers). The row pins the
  // whole-stack observability overhead: "overhead.perf_mc_traced" metadata is
  // the fractional wall-time cost over the untraced sibling, budgeted at
  // <= 15% (scripts/compare_bench.py gates the throughput like any row).
  {
    const std::size_t reps = quick ? 50 : 500;
    const ScenarioSpec& spec = find_scenario("many-node-churn");
    RawConfig raw;
    raw.set("nodes", "16");
    mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
    mc::McConfig mc_config;
    mc_config.replications = reps;
    obs::TraceBuffer trace_sink;
    obs::Registry metrics_sink;
    obs::PhaseProfile profile_sink;
    mc_config.obs.trace = &trace_sink;
    mc_config.obs.metrics = &metrics_sink;
    mc_config.obs.profile = &profile_sink;
    double mean = 0.0;
    const double ms = time_ms(3, [&] {
      trace_sink.clear();
      metrics_sink = obs::Registry{};
      profile_sink = {};
      mean = mc::run_monte_carlo(scenario, mc_config).mean();
    });
    const double overhead = untraced_n16_ms > 0.0 ? ms / untraced_n16_ms - 1.0 : 0.0;
    table.add_row({"perf_mc_traced", util::format_double(ms, 2),
                   std::to_string(reps) + " reps x 16 nodes, " +
                       std::to_string(trace_sink.size()) + " records, overhead " +
                       util::format_double(overhead * 100.0, 1) + "%",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps("perf_mc_traced", reps);
    meta.extra.emplace_back("overhead.perf_mc_traced", util::format_double(overhead, 3));
    if (profile) {
      bench_profile = profile_sink;
      note_profile("perf_mc_traced");
    }
  }

  // perf_mc_n256: the witness for how the policy layer scales with n —
  // many-node-churn at n=256, where LBP-2 decides about 3,900 times per
  // replication (the t=0 split plus eq. (8) at every failure). Those
  // decisions cost O(n * J) and O(n) (core/excess.cpp); a per-pair re-sum
  // would make them O(n^3) and O(n^2) again and show here first.
  {
    const std::size_t reps = quick ? 20 : 100;
    const ScenarioSpec& spec = find_scenario("many-node-churn");
    RawConfig raw;
    raw.set("nodes", "256");
    mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
    mc::McConfig mc_config;
    mc_config.replications = reps;
    mc_config.obs = profile_sinks();
    double mean = 0.0;
    const double ms = time_ms(2, [&] {
      bench_profile = {};
      mean = mc::run_monte_carlo(scenario, mc_config).mean();
    });
    table.add_row({"perf_mc_n256", util::format_double(ms, 2),
                   std::to_string(reps) + " reps x 256 nodes, policy n-scaling, mean " +
                       util::format_double(mean, 2) + " s",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps("perf_mc_n256", reps);
    note_profile("perf_mc_n256");
  }

  // perf_mc_vr: effective throughput of the variance-reduced estimator —
  // measured replications/s times the equal-budget variance ratio
  // Var(plain)/Var(adjusted). The ratio is the factor by which the adjusted
  // estimator stretches the same wall-clock budget, so this row regresses if
  // either the engine slows down or the estimator's variance contraction
  // degrades (e.g. a control drifting out of correlation), while raw-speed
  // rows above stay blind to the latter. The family is churn-storm — the
  // theory-mappable two-node system under accelerated churn, where mirrored
  // pairs cancel most of the service-draw noise (ratio ~2.2-2.5). Antithetic
  // only: pairs cost nothing per replication, so the whole ratio is net gain,
  // whereas the control variate's surrogate run roughly doubles per-rep cost
  // for little extra contraction on this family.
  {
    const std::size_t reps = quick ? 200 : 1000;
    const ScenarioSpec& spec = find_scenario("churn-storm");
    mc::McConfig mc_config;
    mc_config.replications = reps;
    mc_config.vr = mc::VrMode::kAntithetic;
    mc_config.obs = profile_sinks();
    mc::McVrReport vr;
    const double ms = time_ms(3, [&] {
      bench_profile = {};
      mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(RawConfig{}));
      vr = mc::run_monte_carlo(scenario, mc_config).vr;
    });
    const double effective = reps * 1000.0 / ms * vr.variance_ratio;
    table.add_row({"perf_mc_vr", util::format_double(ms, 2),
                   std::to_string(reps) + " reps vr=antithetic, var ratio " +
                       util::format_double(vr.variance_ratio, 2) + ", adj mean " +
                       util::format_double(vr.mean, 2) + " s",
                   util::format_double(effective, 1)});
    note_reps("perf_mc_vr", reps);
    note_profile("perf_mc_vr");
    meta.extra.emplace_back("variance_ratio.perf_mc_vr",
                            util::format_double(vr.variance_ratio, 3));
  }

  // perf_mc_env: the environment-modulated hot path (correlated-churn at
  // n=16) — guards the env subsystem's per-event cost (hazard re-arms, CTMC
  // transitions) against allocation/regression creep, next to its unmodulated
  // perf_mc_n16 sibling.
  {
    const std::size_t reps = quick ? 50 : 500;
    const ScenarioSpec& spec = find_scenario("correlated-churn");
    RawConfig raw;
    raw.set("nodes", "16");
    // Pinned to perf_mc_n16's exact workloads/rates with a mild, brisk storm:
    // the two rows then differ only in the modulation machinery (CTMC
    // transitions, hazard re-arms, the extra RNG stream), not in how much
    // churn the storm physically causes.
    raw.set("workloads", "120,20,60,40");
    raw.set("lambda_r", "0.25");
    raw.set("env.storm.mult", "2");
    raw.set("env.storm.on", "0.1");
    raw.set("env.storm.off", "1.5");
    mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
    mc::McConfig mc_config;
    mc_config.replications = reps;
    mc_config.obs = profile_sinks();
    double mean = 0.0;
    const double ms = time_ms(3, [&] {
      bench_profile = {};
      mean = mc::run_monte_carlo(scenario, mc_config).mean();
    });
    table.add_row({"perf_mc_env", util::format_double(ms, 2),
                   std::to_string(reps) + " reps x 16 nodes correlated churn, mean " +
                       util::format_double(mean, 2) + " s",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps("perf_mc_env", reps);
    note_profile("perf_mc_env");
  }

  // perf_mc_graph: the topology-restricted hot path (graph-rr at n=32 with
  // random-probe rounds) — guards the neighbourhood machinery's per-round
  // cost (adjacency checks, neighbour iteration, the policy RNG stream) next
  // to its unrestricted perf_mc_n32 sibling.
  {
    const std::size_t reps = quick ? 50 : 500;
    const ScenarioSpec& spec = find_scenario("graph-rr");
    RawConfig raw;
    raw.set("workloads", "120,20,60,40");
    mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
    mc::McConfig mc_config;
    mc_config.replications = reps;
    mc_config.obs = profile_sinks();
    double mean = 0.0;
    const double ms = time_ms(2, [&] {
      bench_profile = {};
      mean = mc::run_monte_carlo(scenario, mc_config).mean();
    });
    table.add_row({"perf_mc_graph", util::format_double(ms, 2),
                   std::to_string(reps) + " reps x 32 nodes random-regular probe, mean " +
                       util::format_double(mean, 2) + " s",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps("perf_mc_graph", reps);
    note_profile("perf_mc_graph");
  }

  // perf_mc_steady: the infinite-horizon engine on the open-steady defaults —
  // guards the per-completion cost of the open-system hot path (unbounded
  // arrival stream, per-task latency records, MSER-5 + batch-means analysis),
  // which has no finite-horizon sibling.
  {
    const std::size_t tasks = quick ? 5000 : 20000;
    const ScenarioSpec& spec = find_scenario("open-steady");
    RawConfig raw;
    raw.set("steady.tasks", std::to_string(tasks));
    mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
    mc::SteadyConfig steady_config;
    steady_config.seed = 0x5eed2006;
    steady_config.obs = profile_sinks();
    double mean = 0.0;
    const double ms = time_ms(3, [&] {
      bench_profile = {};
      mean = mc::run_steady(scenario, steady_config).mean();
    });
    table.add_row({"perf_mc_steady", util::format_double(ms, 2),
                   std::to_string(tasks) + " completions open-steady, mean sojourn " +
                       util::format_double(mean, 2) + " s",
                   util::format_double(tasks * 1000.0 / ms, 1)});
    note_reps("perf_mc_steady", 1);
    note_profile("perf_mc_steady");
  }

  // perf_testbed_lossy: the emulated testbed with a bursty 2-state channel on
  // the state plane — guards the per-round broadcast cost (channel stepping,
  // shared-delivery captures, staleness accounting) of the lossy-exchange hot
  // path, which no abstract-MC row exercises.
  {
    const std::size_t reps = quick ? 20 : 60;
    const ScenarioSpec& spec = find_scenario("lossy-exchange");
    RawConfig raw;
    raw.set("channel.states", "2");
    testbed::TestbedConfig tb = testbed::from_scenario(spec.build(spec.schema.resolve(raw)));
    double mean = 0.0;
    const double ms = time_ms(3, [&] {
      bench_profile = {};
      mean = testbed::run_experiment(tb, reps, 0xbed2006, /*threads=*/0, profile_sinks())
                 .mean();
    });
    table.add_row({"perf_testbed_lossy", util::format_double(ms, 2),
                   std::to_string(reps) + " realizations, 2-state channel, mean " +
                       util::format_double(mean, 2) + " s",
                   util::format_double(reps * 1000.0 / ms, 1)});
    note_reps("perf_testbed_lossy", reps);
    note_profile("perf_testbed_lossy");
  }

  meta.command = joined_command(argc, argv);
  meta.scenario = "perf-baseline";
  meta.seed = 0x5eed2006;
  meta.wall_seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  table.print(out);
  if (profile) {
    out << "\nper-phase breakdown (engine self-profiling, last timed run):\n\n";
    profile_table.print(out);
  }
  const std::string path = args.get_string("out", "");
  if (!path.empty()) {
    // git_revision() is the configure-time snapshot — the same value stamped
    // into the artefact's metadata — so this warns exactly when the written
    // file would claim a dirty revision.
    if (git_revision().find("-dirty") != std::string::npos) {
      out << "warning: baseline will be stamped with a dirty configure-time revision (git "
          << git_revision()
          << "); commit, re-run cmake, and rebuild before committing this baseline\n";
    }
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write to '" + path + "'");
    write_json(file, meta, table);
    out << "wrote json to " << path << "\n";
  }
  return 0;
}

}  // namespace

std::string degeneration_warning(const core::LoadBalancingPolicy& policy,
                                 const markov::MultiNodeParams& params,
                                 const std::vector<std::size_t>& workloads,
                                 double mean_tasks_moved) {
  if (mean_tasks_moved > 0.0 || dynamic_cast<const core::NoBalancingPolicy*>(&policy)) {
    return {};
  }
  std::vector<double> rates;
  for (const markov::NodeParams& node : params.nodes) rates.push_back(node.lambda_d);
  for (std::size_t j = 0; j < workloads.size(); ++j) {
    const double excess = core::excess_load(rates, workloads, j);
    if (excess < 1.0) continue;
    std::ostringstream os;
    os << policy.name() << " moved no task in any replication, although node " << j
       << " starts " << util::format_double(excess, 1)
       << " tasks above its fair share; its per-pair shares all rounded to zero, so these "
          "results are those of policy=none";
    return os.str();
  }
  return {};
}

int run_lbsim(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  try {
    const util::CliArgs args(argc, argv);
    if (const std::string level = args.get_string("log-level", ""); !level.empty()) {
      util::set_log_level(util::parse_log_level(level));
    }
    if (args.positional().empty() || args.has("help")) {
      out << kUsage;
      return args.positional().empty() && !args.has("help") ? 2 : 0;
    }
    const std::string& command = args.positional()[0];
    if (command == "list") return cmd_list(args, out);
    if (command == "run") return cmd_run(argc, argv, args, out, err);
    if (command == "sweep") return cmd_sweep(argc, argv, args, out);
    if (command == "validate") return cmd_validate(argc, argv, args, out);
    if (command == "reproduce") return cmd_reproduce(argc, argv, args, out);
    if (command == "perf") return cmd_perf(argc, argv, args, out);
    err << "lbsim: unknown command '" << command << "'\n\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "lbsim: error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace lbsim::cli
