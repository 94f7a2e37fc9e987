#include "cli/registry.hpp"

#include <algorithm>

#include "core/baseline.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "core/local.hpp"
#include "core/periodic.hpp"
#include "net/delay_model.hpp"
#include "net/topology.hpp"
#include "util/format.hpp"

namespace lbsim::cli {
namespace {

constexpr double kNoMin = std::numeric_limits<double>::lowest();
constexpr double kNoMax = std::numeric_limits<double>::max();

/// Policy vocabularies: every pre-topology family keeps the global-state set;
/// the graph-* families additionally admit the neighbourhood-local policies
/// (and reject the global ones at build time unless topology=complete).
const std::vector<std::string> kGlobalPolicies = {"none", "proportional", "lbp1", "lbp2",
                                                  "periodic"};
const std::vector<std::string> kGraphPolicies = {"none",     "proportional", "lbp1", "lbp2",
                                                 "periodic", "probe",        "diffusion"};

/// Shorthand OptionSpec constructor (avoids designated-init verbosity and
/// gcc's -Wmissing-field-initializers on partially designated aggregates).
OptionSpec opt(std::string key, OptionType type, std::string default_value,
               std::string description, double min_value = kNoMin, double max_value = kNoMax,
               std::vector<std::string> choices = {}) {
  OptionSpec spec;
  spec.key = std::move(key);
  spec.type = type;
  spec.default_value = std::move(default_value);
  spec.description = std::move(description);
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.choices = std::move(choices);
  return spec;
}

/// Keys shared by every scenario family.
Schema common_schema(const std::string& default_policy, double default_gain,
                     std::vector<std::string> policy_choices = kGlobalPolicies) {
  Schema schema;
  schema
      .add(opt("policy", OptionType::kString, default_policy,
               "balancing policy executed by the engines", kNoMin, kNoMax,
               std::move(policy_choices)))
      .add(opt("gain", OptionType::kDouble, util::format_double(default_gain, 2),
               "policy gain K", 0.0, 10.0))
      .add(opt("sender", OptionType::kInt, "-1",
               "LBP-1 two-node sender (-1 = the more-loaded node)", -1.0, 255.0))
      .add(opt("period", OptionType::kDouble, "10",
               "rebalance period in seconds (policy=periodic)", 1e-6, 1e6))
      .add(opt("compensate", OptionType::kBool, "false",
               "stack LBP-2's on-failure compensation onto policy=periodic"))
      .add(opt("churn", OptionType::kBool, "true", "inject node failure/recovery"))
      .add(opt("down.mask", OptionType::kSize, "0",
               "bitmask of nodes that start down (bit i = node i, 64-bit)", kNoMin, kNoMax))
      .add(opt("delay.model", OptionType::kString, "exponential", "bundle transfer-delay law",
               kNoMin, kNoMax, {"exponential", "erlang", "deterministic"}))
      .add(opt("delay.per_task", OptionType::kDouble, "0.02",
               "mean per-task transfer delay d (seconds)", 1e-9, 1e3))
      .add(opt("delay.shift", OptionType::kDouble, "0",
               "connection-setup shift added to every bundle delay (s)", 0.0, 10.0));
  return schema;
}

/// Two-node workload keys (the paper's m0/m1).
Schema two_node_schema(const std::string& default_policy, double default_gain,
                       std::size_t m0 = 100, std::size_t m1 = 60) {
  Schema schema = common_schema(default_policy, default_gain);
  schema
      .add(opt("m0", OptionType::kSize, std::to_string(m0), "initial tasks on node 0",
               kNoMin, 5000.0))
      .add(opt("m1", OptionType::kSize, std::to_string(m1), "initial tasks on node 1",
               kNoMin, 5000.0));
  return schema;
}

/// Applies the shared delay/churn/down keys onto a built scenario.
void apply_common(mc::ScenarioConfig& scenario, const Config& config) {
  scenario.params.per_task_delay_mean = config.get_double("delay.per_task");
  const std::string model = config.get_string("delay.model");
  const double shift = config.get_double("delay.shift");
  if (model == "erlang") {
    scenario.delay_model =
        std::make_unique<net::ErlangPerTaskDelay>(scenario.params.per_task_delay_mean, shift);
  } else if (model == "deterministic") {
    scenario.delay_model = std::make_unique<net::DeterministicLinearDelay>(
        scenario.params.per_task_delay_mean, shift);
  } else if (shift != 0.0) {
    scenario.delay_model = std::make_unique<net::ExponentialBundleDelay>(
        scenario.params.per_task_delay_mean, shift);
  }  // plain exponential with no shift: leave null, the engine default
  scenario.churn_enabled = config.get_bool("churn");
  scenario.initially_down = static_cast<std::uint64_t>(config.get_size("down.mask"));
  // The round-based policies all run off the engine's periodic timer.
  const std::string policy = config.get_string("policy");
  if (policy == "periodic" || policy == "probe" || policy == "diffusion") {
    scenario.rebalance_period = config.get_double("period");
  }
}

/// Builds a two-node scenario on the paper's measured parameters, with an
/// optional scaling of the failure/recovery rates.
mc::ScenarioConfig build_two_node(const Config& config, double failure_scale = 1.0,
                                  double recovery_scale = 1.0) {
  markov::TwoNodeParams params = markov::ipdps2006_params();
  for (auto& node : params.nodes) {
    node.lambda_f *= failure_scale;
    node.lambda_r *= recovery_scale;
  }
  const std::vector<std::size_t> workloads = {config.get_size("m0"), config.get_size("m1")};
  mc::ScenarioConfig scenario = mc::make_two_node_scenario(params, workloads[0], workloads[1],
                                                           make_policy(config, workloads));
  apply_common(scenario, config);
  return scenario;
}

/// Shared keys of the n-node families: per-node rate/workload lists cycled to
/// `nodes` entries. Defaults differ per family (small heterogeneous cluster vs
/// many-node churn stress).
Schema n_node_schema(const char* default_nodes, const char* default_lambda_r,
                     const char* default_workloads, const char* default_policy = "lbp2",
                     std::vector<std::string> policy_choices = kGlobalPolicies) {
  Schema schema = common_schema(default_policy, 1.0, std::move(policy_choices));
  schema
      .add(opt("nodes", OptionType::kSize, default_nodes,
               "number of compute nodes (down.mask addresses the first 64)", 2.0, 1024.0))
      .add(opt("lambda_d", OptionType::kDoubleList, "1.08,1.86,1.5,1.2",
               "per-node service rates, cycled to `nodes` entries", 1e-9, 1e6))
      .add(opt("lambda_f", OptionType::kDoubleList, "0.05",
               "per-node failure rates, cycled (0 = never fails)", 0.0, 1e6))
      .add(opt("lambda_r", OptionType::kDoubleList, default_lambda_r,
               "per-node recovery rates, cycled", 0.0, 1e6))
      .add(opt("workloads", OptionType::kSizeList, default_workloads,
               "initial tasks per node, cycled to `nodes` entries", kNoMin, 5000.0));
  return schema;
}

/// Environment-CTMC key group (the env.* keys shared by the env-modulated
/// families). The canonical 2-state calm/storm chain is parameterised by the
/// scalar env.storm.* keys — sweepable as axes — while env.mult/env.gen give
/// the general K-state form.
Schema env_schema(const char* default_storm_mult) {
  Schema schema;
  schema
      .add(opt("env.states", OptionType::kSize, "2", "environment CTMC state count K", 2.0,
               16.0))
      .add(opt("env.storm.mult", OptionType::kDouble, default_storm_mult,
               "failure-hazard multiplier of the storm state (2-state form)", 1e-6, 1e6))
      .add(opt("env.storm.on", OptionType::kDouble, "0.05",
               "calm->storm transition rate (2-state form)", 1e-9, 1e6))
      .add(opt("env.storm.off", OptionType::kDouble, "0.2",
               "storm->calm transition rate (2-state form)", 1e-9, 1e6))
      .add(opt("env.mult", OptionType::kDoubleList, "",
               "per-state failure-hazard multipliers, cycled to env.states "
               "(overrides env.storm.mult)",
               1e-6, 1e6))
      .add(opt("env.gen", OptionType::kDoubleList, "",
               "row-major K x K generator rates, diagonals ignored "
               "(empty = 2-state calm/storm from env.storm.*)",
               0.0, 1e6))
      .add(opt("env.start", OptionType::kSize, "0", "environment state at t = 0", 0.0,
               15.0));
  return schema;
}

/// True when the user supplied any env.* key (so a family with optional
/// modulation knows to build the environment at all).
bool env_supplied(const Config& config) {
  for (const char* key : {"env.states", "env.storm.mult", "env.storm.on", "env.storm.off",
                          "env.mult", "env.gen", "env.start"}) {
    if (config.supplied(key)) return true;
  }
  return false;
}

/// Cycles `values` to exactly `n` entries (the list-key idiom used by the
/// n-node rate lists).
std::vector<double> cycled(std::vector<double> values, std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = values[i % values.size()];
  return out;
}

env::EnvironmentSpec build_environment(const Config& config) {
  env::EnvironmentSpec spec;
  spec.states = config.get_size("env.states");
  const std::vector<double> mult = config.get_double_list("env.mult");
  if (mult.empty()) {
    if (spec.states != 2) {
      throw ConfigError(ConfigError::Kind::kBadValue, "env.mult",
                        "env.states=" + std::to_string(spec.states) +
                            " needs an explicit env.mult list (env.storm.mult only "
                            "parameterises the 2-state form)");
    }
    spec.failure_mult = {1.0, config.get_double("env.storm.mult")};
  } else {
    spec.failure_mult = cycled(mult, spec.states);
  }
  const std::vector<double> gen = config.get_double_list("env.gen");
  if (gen.empty()) {
    if (spec.states != 2) {
      throw ConfigError(ConfigError::Kind::kBadValue, "env.gen",
                        "env.states=" + std::to_string(spec.states) +
                            " needs an explicit K x K env.gen generator");
    }
    spec.generator = {0.0, config.get_double("env.storm.on"),
                      config.get_double("env.storm.off"), 0.0};
  } else {
    if (gen.size() != spec.states * spec.states) {
      throw ConfigError(ConfigError::Kind::kBadValue, "env.gen",
                        "env.gen has " + std::to_string(gen.size()) + " entries, expected " +
                            std::to_string(spec.states * spec.states));
    }
    spec.generator = gen;
  }
  spec.initial_state = config.get_size("env.start");
  if (spec.initial_state >= spec.states) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, "env.start",
                      "env.start=" + std::to_string(spec.initial_state) +
                          " is not a state of the " + std::to_string(spec.states) +
                          "-state environment");
  }
  env::validate(spec);
  return spec;
}

/// State-exchange / channel key group (the testbed-engine families). The
/// channel.* lists are per-state, cycled to channel.states entries — so a
/// scalar channel.burst sweep stretches every state's dwell while holding the
/// stationary loss mix fixed (the controlled staleness experiment).
Schema channel_schema(const char* default_states) {
  Schema schema;
  schema
      .add(opt("exchange.period", OptionType::kDouble, "1",
               "UDP state-broadcast period (s)", 1e-3, 1e3))
      .add(opt("exchange.latency", OptionType::kDouble, "0.001",
               "one-way state-packet latency (s)", 0.0, 10.0))
      .add(opt("exchange.loss", OptionType::kDouble, "0",
               "i.i.d. state-packet loss probability (1 = blackout; ignored when "
               "channel.states >= 1)",
               0.0, 1.0))
      .add(opt("channel.states", OptionType::kSize, default_states,
               "Markov channel state count k (0 = i.i.d. exchange.loss; 2 = "
               "Gilbert-Elliott)",
               kNoMin, 16.0))
      .add(opt("channel.loss", OptionType::kDoubleList, "0,0.9",
               "per-state loss probabilities, cycled to channel.states", 0.0, 1.0))
      .add(opt("channel.burst", OptionType::kDoubleList, "16,4",
               "per-state mean burst lengths in packets (geometric dwell), cycled", 1.0, 1e6))
      .add(opt("channel.latency.mult", OptionType::kDoubleList, "1",
               "per-state multipliers on exchange.latency, cycled", 0.0, 1e3))
      .add(opt("channel.data.mult", OptionType::kDoubleList, "1",
               "per-state multipliers on data-bundle delays, cycled", 1e-6, 1e3))
      .add(opt("channel.env", OptionType::kBool, "false",
               "floor the channel state by the env.* CTMC state (storms jam the "
               "state plane)"));
  return schema;
}

/// Applies the exchange.*/channel.* keys onto a built scenario.
void apply_channel(mc::ScenarioConfig& scenario, const Config& config) {
  scenario.exchange_period = config.get_double("exchange.period");
  scenario.state_latency = config.get_double("exchange.latency");
  scenario.state_loss_probability = config.get_double("exchange.loss");
  const std::size_t k = config.get_size("channel.states");
  if (k == 0) {
    if (config.get_bool("channel.env")) {
      throw ConfigError(ConfigError::Kind::kBadValue, "channel.env",
                        "channel.env=true needs channel.states >= 1");
    }
    return;
  }
  net::ChannelSpec channel;
  channel.states = k;
  // Empty lists keep ChannelModel's documented defaults (loss 0, burst 1,
  // multipliers 1); non-empty lists are cycled to k entries here so the spec
  // that lands in the scenario is fully explicit.
  const auto cyc = [&](const char* key) {
    std::vector<double> values = config.get_double_list(key);
    return values.empty() ? values : cycled(std::move(values), k);
  };
  channel.loss = cyc("channel.loss");
  channel.mean_burst = cyc("channel.burst");
  channel.latency_mult = cyc("channel.latency.mult");
  channel.data_mult = cyc("channel.data.mult");
  channel.env_coupled = config.get_bool("channel.env");
  try {
    net::validate(channel);
  } catch (const std::invalid_argument& e) {
    throw ConfigError(ConfigError::Kind::kBadValue, "channel.states", e.what());
  }
  scenario.channel = std::move(channel);
}

/// Topology key group (the graph-* families). `topology` selects the
/// exchange-graph kind; `complete` takes the historical full-mesh path, so a
/// graph-* family at topology=complete is bit-identical to its global-state
/// counterpart (pinned in mc_test).
Schema topology_schema(const char* default_kind) {
  Schema schema;
  schema
      .add(opt("topology", OptionType::kString, default_kind,
               "exchange-graph kind (complete reduces to the global-state baseline)", kNoMin,
               kNoMax, {"complete", "ring", "torus", "rr"}))
      .add(opt("topology.degree", OptionType::kSize, "4",
               "random-regular degree d (topology=rr; nodes*d must be even)", 2.0, 63.0))
      .add(opt("topology.rows", OptionType::kSize, "0",
               "torus rows (0 = near-square factorisation of nodes)", kNoMin, 64.0))
      .add(opt("topology.cols", OptionType::kSize, "0",
               "torus cols (0 = near-square factorisation of nodes)", kNoMin, 64.0))
      .add(opt("topology.seed", OptionType::kSize, "278819329",
               "graph-construction seed (random-regular wiring, churn masks)", kNoMin,
               kNoMax))
      .add(opt("topology.churn.drop", OptionType::kDouble, "0",
               "edge-drop scale under the environment CTMC: state s of K drops each edge "
               "w.p. drop*s/(K-1) (needs the env.* keys)",
               0.0, 1.0))
      .add(opt("topology.churn.spare", OptionType::kBool, "true",
               "never drop an edge that would isolate either endpoint"))
      .add(opt("probes", OptionType::kSize, "2",
               "random neighbours probed per round (policy=probe)", 1.0, 63.0))
      .add(opt("alpha", OptionType::kDouble, "0.5",
               "diffusion step scale in (0, 1] (policy=diffusion)", 1e-6, 1.0));
  return schema;
}

net::TopologySpec build_topology(const Config& config) {
  net::TopologySpec spec;
  try {
    spec.kind = net::kind_from_string(config.get_string("topology"));
  } catch (const std::invalid_argument& e) {
    throw ConfigError(ConfigError::Kind::kBadValue, "topology", e.what());
  }
  spec.degree = config.get_size("topology.degree");
  spec.rows = config.get_size("topology.rows");
  spec.cols = config.get_size("topology.cols");
  spec.seed = static_cast<std::uint64_t>(config.get_size("topology.seed"));
  spec.churn_drop = config.get_double("topology.churn.drop");
  spec.churn_spare = config.get_bool("topology.churn.spare");
  return spec;
}

/// External-arrival key group (open-system families).
Schema arrivals_schema() {
  Schema schema;
  schema
      .add(opt("arrivals.process", OptionType::kString, "poisson",
               "external arrival process", kNoMin, kNoMax, {"none", "poisson", "mmpp"}))
      .add(opt("arrivals.rate", OptionType::kDouble, "0.04",
               "Poisson arrival-epoch rate (1/s)", 1e-9, 1e6))
      .add(opt("arrivals.rates", OptionType::kDoubleList, "0.01,0.16",
               "MMPP per-environment-state epoch rates, cycled to env.states", 0.0, 1e6))
      .add(opt("arrivals.count", OptionType::kSize, "4",
               "arrival epochs per replication (finite keeps completion defined; "
               "use arrivals.process=none to disable the stream)",
               1.0, 100000.0))
      .add(opt("arrivals.batch", OptionType::kSize, "40",
               "tasks per arrival epoch (the mean when geometric)", 1.0, 5000.0))
      .add(opt("arrivals.batch.law", OptionType::kString, "fixed", "batch-size law", kNoMin,
               kNoMax, {"fixed", "geometric"}))
      .add(opt("arrivals.target", OptionType::kInt, "0",
               "node receiving each bundle (-1 = uniform random)", -1.0, 63.0))
      .add(opt("arrivals.rebalance", OptionType::kBool, "false",
               "re-run the policy's t=0 balancing episode after every arrival"));
  return schema;
}

env::ArrivalSpec build_arrivals(const Config& config, const env::EnvironmentSpec& environment) {
  env::ArrivalSpec spec;
  const std::string process = config.get_string("arrivals.process");
  if (process == "none") return spec;
  spec.process = process == "mmpp" ? env::ArrivalSpec::Process::kMmpp
                                   : env::ArrivalSpec::Process::kPoisson;
  spec.rate = config.get_double("arrivals.rate");
  if (spec.process == env::ArrivalSpec::Process::kMmpp) {
    if (!environment.enabled()) {
      throw ConfigError(ConfigError::Kind::kBadValue, "arrivals.process",
                        "arrivals.process=mmpp needs the env.* environment keys");
    }
    const std::vector<double> rates = config.get_double_list("arrivals.rates");
    if (rates.empty()) {
      throw ConfigError(ConfigError::Kind::kBadValue, "arrivals.rates",
                        "arrivals.rates must be a non-empty rate list for MMPP");
    }
    spec.state_rates = cycled(rates, environment.states);
  }
  spec.count = config.get_size("arrivals.count");
  spec.batch = config.get_size("arrivals.batch");
  spec.batch_law = config.get_string("arrivals.batch.law") == "geometric"
                       ? env::ArrivalSpec::BatchLaw::kGeometric
                       : env::ArrivalSpec::BatchLaw::kFixed;
  spec.target = static_cast<int>(config.get_int("arrivals.target"));
  spec.rebalance = config.get_bool("arrivals.rebalance");
  return spec;
}

/// Arrival keys of the steady-state family: same names as arrivals_schema so
/// sweeps/overrides transfer, but no arrivals.count (the stream is always
/// unbounded), unit batches by default, and rate 0 = derive from `rho`.
Schema steady_arrivals_schema() {
  Schema schema;
  schema
      .add(opt("arrivals.process", OptionType::kString, "poisson",
               "external arrival process", kNoMin, kNoMax, {"poisson", "mmpp"}))
      .add(opt("arrivals.rate", OptionType::kDouble, "0",
               "Poisson arrival-epoch rate (1/s); 0 = derive from rho", 0.0, 1e6))
      .add(opt("arrivals.rates", OptionType::kDoubleList, "0.5,2",
               "MMPP per-environment-state epoch rates, cycled to env.states", 0.0, 1e6))
      .add(opt("arrivals.batch", OptionType::kSize, "1",
               "tasks per arrival epoch (the mean when geometric)", 1.0, 5000.0))
      .add(opt("arrivals.batch.law", OptionType::kString, "fixed", "batch-size law", kNoMin,
               kNoMax, {"fixed", "geometric"}))
      .add(opt("arrivals.target", OptionType::kInt, "-1",
               "node receiving each epoch (-1 = uniform random)", -1.0, 63.0))
      .add(opt("arrivals.rebalance", OptionType::kBool, "false",
               "re-run the policy's t=0 balancing episode after every arrival"))
      .add(opt("rho", OptionType::kDouble, "0.5",
               "offered load: epoch rate = rho * sum(lambda_d) / batch "
               "(used when arrivals.rate = 0; under churn, effective capacity "
               "is availability * lambda_d, so saturation begins below 1)",
               0.01, 0.99))
      .add(opt("steady.tasks", OptionType::kSize, "20000",
               "completed tasks observed per replication", 1000.0, 1e7))
      .add(opt("steady.batches", OptionType::kSize, "32",
               "batch count for the batch-means CI", 8.0, 256.0))
      .add(opt("steady.warmup.cap", OptionType::kDouble, "0.5",
               "max fraction of the window MSER-5 may truncate as warm-up", 0.0, 0.9));
  return schema;
}

env::ArrivalSpec build_steady_arrivals(const Config& config,
                                       const mc::ScenarioConfig& scenario) {
  env::ArrivalSpec spec;
  const std::string process = config.get_string("arrivals.process");
  spec.process = process == "mmpp" ? env::ArrivalSpec::Process::kMmpp
                                   : env::ArrivalSpec::Process::kPoisson;
  spec.unbounded = true;
  spec.batch = config.get_size("arrivals.batch");
  spec.batch_law = config.get_string("arrivals.batch.law") == "geometric"
                       ? env::ArrivalSpec::BatchLaw::kGeometric
                       : env::ArrivalSpec::BatchLaw::kFixed;
  spec.target = static_cast<int>(config.get_int("arrivals.target"));
  spec.rebalance = config.get_bool("arrivals.rebalance");
  if (spec.process == env::ArrivalSpec::Process::kMmpp) {
    if (!scenario.environment.enabled()) {
      throw ConfigError(ConfigError::Kind::kBadValue, "arrivals.process",
                        "arrivals.process=mmpp needs the env.* environment keys");
    }
    const std::vector<double> rates = config.get_double_list("arrivals.rates");
    if (rates.empty()) {
      throw ConfigError(ConfigError::Kind::kBadValue, "arrivals.rates",
                        "arrivals.rates must be a non-empty rate list for MMPP");
    }
    spec.state_rates = cycled(rates, scenario.environment.states);
    return spec;
  }
  spec.rate = config.get_double("arrivals.rate");
  if (spec.rate <= 0.0) {
    // rho is the offered load: task rate rho * sum(mu), so the epoch rate
    // divides out the mean batch size.
    double total_mu = 0.0;
    for (const markov::NodeParams& np : scenario.params.nodes) total_mu += np.lambda_d;
    spec.rate =
        config.get_double("rho") * total_mu / static_cast<double>(std::max<std::size_t>(
                                                 spec.batch, 1));
  }
  return spec;
}

/// Builder shared by `multi-node` and `many-node-churn`.
mc::ScenarioConfig build_n_node(const Config& config) {
  const std::size_t n = config.get_size("nodes");
  const auto rates_d = config.get_double_list("lambda_d");
  const auto rates_f = config.get_double_list("lambda_f");
  const auto rates_r = config.get_double_list("lambda_r");
  const auto loads = config.get_size_list("workloads");
  if (rates_d.empty() || rates_f.empty() || rates_r.empty() || loads.empty()) {
    throw ConfigError(ConfigError::Kind::kBadValue, "lambda_d",
                      "multi-node rate/workload lists must be non-empty");
  }
  mc::ScenarioConfig scenario;
  scenario.workloads.resize(n);
  scenario.params.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scenario.params.nodes[i].lambda_d = rates_d[i % rates_d.size()];
    scenario.params.nodes[i].lambda_f = rates_f[i % rates_f.size()];
    scenario.params.nodes[i].lambda_r = rates_r[i % rates_r.size()];
    scenario.workloads[i] = loads[i % loads.size()];
  }
  scenario.policy = make_policy(config, scenario.workloads);
  apply_common(scenario, config);
  markov::validate(scenario.params);
  return scenario;
}

/// Builder shared by the graph-* families: an n-node cluster restricted to a
/// (possibly churned) exchange graph. Global-state policies are rejected
/// unless topology=complete — on a sparse graph they would read and ship
/// across non-edges, which the engine traps anyway; failing here names the
/// key instead of aborting a replication.
mc::ScenarioConfig build_graph(const Config& config) {
  mc::ScenarioConfig scenario = build_n_node(config);
  scenario.topology = build_topology(config);
  const std::string policy = config.get_string("policy");
  const bool local = policy == "none" || policy == "probe" || policy == "diffusion";
  if (!scenario.topology.complete() && !local) {
    throw ConfigError(ConfigError::Kind::kBadValue, "policy",
                      "policy=" + policy +
                          " reads global state; topology=" + config.get_string("topology") +
                          " admits only the neighbourhood-local policies "
                          "(none, probe, diffusion) — or set topology=complete");
  }
  if (env_supplied(config)) scenario.environment = build_environment(config);
  if (scenario.topology.dynamic()) {
    if (scenario.topology.complete()) {
      throw ConfigError(ConfigError::Kind::kBadValue, "topology.churn.drop",
                        "edge churn needs a non-complete topology");
    }
    if (!scenario.environment.enabled()) {
      throw ConfigError(ConfigError::Kind::kBadValue, "topology.churn.drop",
                        "topology.churn.drop > 0 needs the env.* environment keys "
                        "(the CTMC drives the edge churn)");
    }
  }
  if (!scenario.topology.complete()) {
    // Surface construction errors (degree parity, torus factorisation) as
    // ConfigError at build time rather than std::invalid_argument at run time.
    try {
      (void)net::Topology::build(scenario.topology, scenario.params.nodes.size());
    } catch (const std::invalid_argument& e) {
      throw ConfigError(ConfigError::Kind::kBadValue, "topology", e.what());
    }
  }
  return scenario;
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> registry;

  registry.push_back(
      {.name = "paper-two-node",
       .summary = "Section 2 two-node system at the paper's measured rates (Tables 1-2)",
       .schema = two_node_schema("lbp1", 0.35),
       .build = [](const Config& config) { return build_two_node(config); }});

  registry.push_back(
      {.name = "multi-node",
       .summary = "n-node heterogeneous cluster (the paper's Section 5 extension)",
       .schema = n_node_schema("4", "0.1", "100,60"),
       .build = [](const Config& config) { return build_n_node(config); }});

  // Many-node MC stress family: the exact solver stops at 8 nodes (one
  // 2^n x 2^n solve per lattice point), so past that the MC engine is the
  // only source of truth. Defaults: 32 nodes, imbalanced workloads (so LBP-2
  // actually transfers), brisk churn. Cross-checked against the solver on the
  // n <= 6 overlap in mc_solver_crosscheck_test.
  registry.push_back(
      {.name = "many-node-churn",
       .summary = "many-node (default 32) churn stress; MC-only past the solver's n<=8 range",
       .schema = n_node_schema("32", "0.25", "120,20,60,40"),
       .build = [](const Config& config) { return build_n_node(config); }});

  {
    Schema schema = two_node_schema("lbp2", 1.0);
    schema
        .add(opt("failure.scale", OptionType::kDouble, "10",
                 "multiplier on both paper failure rates", 0.0, 1e6))
        .add(opt("recovery.scale", OptionType::kDouble, "10",
                 "multiplier on both paper recovery rates", 1e-6, 1e6));
    registry.push_back(
        {.name = "churn-storm",
         .summary = "paper two-node under accelerated failure/recovery churn",
         .schema = std::move(schema),
         .build = [](const Config& config) {
           return build_two_node(config, config.get_double("failure.scale"),
                                 config.get_double("recovery.scale"));
         }});
  }

  {
    Schema schema = two_node_schema("lbp2", 1.0);
    // cold start: node 0 begins down, so its queue drains only after recovery.
    registry.push_back(
        {.name = "cold-start",
         .summary = "paper two-node with nodes initially down (down.mask, default node 0)",
         .schema = std::move(schema),
         .build = [](const Config& config) {
           mc::ScenarioConfig scenario = build_two_node(config);
           if (!config.supplied("down.mask")) scenario.initially_down = 0b01;
           return scenario;
         }});
  }

  registry.push_back(
      {.name = "periodic-rebalance",
       .summary = "paper two-node driven by the periodic re-balancing extension",
       .schema = two_node_schema("periodic", 0.5),
       .build = [](const Config& config) { return build_two_node(config); }});

  // --- env-driven families (src/env subsystem) ---

  {
    // Common-shock churn: paper rates by default (n-node lists cycle to the
    // two paper nodes), scaled to n=16/32 for the MC stress rows. With
    // env.storm.mult=1 this reduces to independent churn (pinned against
    // churn-storm in env_test).
    Schema schema = n_node_schema("2", "0.1,0.05", "100,60");
    schema.merge(env_schema("10"));
    registry.push_back(
        {.name = "correlated-churn",
         .summary = "common-shock churn: calm/storm environment CTMC multiplies every "
                    "failure hazard",
         .schema = std::move(schema),
         .build = [](const Config& config) {
           mc::ScenarioConfig scenario = build_n_node(config);
           scenario.environment = build_environment(config);
           return scenario;
         }});
  }

  {
    // Open system: Poisson / MMPP / batch task arrivals on the paper two-node
    // system (Section 5's dynamic-workload future work; sweeping
    // arrivals.rebalance=false,true is its ablation).
    Schema schema = two_node_schema("lbp2", 1.0);
    schema.merge(arrivals_schema()).merge(env_schema("1"));
    registry.push_back(
        {.name = "open-arrivals",
         .summary = "paper two-node with external task arrivals (Poisson / MMPP / batch)",
         .schema = std::move(schema),
         .build = [](const Config& config) {
           mc::ScenarioConfig scenario = build_two_node(config);
           // MMPP needs the environment; otherwise it is built only when the
           // user asked for modulation (env.storm.mult defaults to 1 here, so
           // arrival burstiness can be studied without correlated churn).
           if (config.get_string("arrivals.process") == "mmpp" || env_supplied(config)) {
             scenario.environment = build_environment(config);
           }
           scenario.arrivals = build_arrivals(config, scenario.environment);
           return scenario;
         }});
  }

  {
    // Infinite-horizon open system: an unbounded Poisson/MMPP stream feeds an
    // n-node cluster and the steady-state engine reports stationary sojourn
    // time (batch-means CI + MSER-5 warm-up truncation) instead of completion
    // time. No-churn points have an exact M/M/1 law (see lbsim validate).
    Schema schema = n_node_schema("2", "0.25", "0");
    schema.merge(steady_arrivals_schema()).merge(env_schema("1"));
    registry.push_back(
        {.name = "open-steady",
         .summary = "infinite-horizon open system: stationary sojourn time under an "
                    "unbounded arrival stream (steady-state engine)",
         .schema = std::move(schema),
         .build =
             [](const Config& config) {
               mc::ScenarioConfig scenario = build_n_node(config);
               if (config.get_string("arrivals.process") == "mmpp" ||
                   env_supplied(config)) {
                 scenario.environment = build_environment(config);
               }
               scenario.arrivals = build_steady_arrivals(config, scenario);
               scenario.steady.tasks = config.get_size("steady.tasks");
               scenario.steady.batches = config.get_size("steady.batches");
               scenario.steady.warmup_cap = config.get_double("steady.warmup.cap");
               return scenario;
             },
         .steady = true});
  }

  {
    // Aspnes-style adversarial churn: deterministic up/down timelines replace
    // the alternating-renewal processes (stochastic churn defaults off; nodes
    // without a clause stay up unless churn=true is supplied).
    Schema schema = two_node_schema("lbp2", 1.0);
    schema.add(opt("schedule", OptionType::kString, "0:down@10-30",
                   "deterministic timeline per node: n:down@A[-B],up@T;... "
                   "(down@0-... = starts down)"));
    registry.push_back(
        {.name = "scheduled-churn",
         .summary = "paper two-node under deterministic up/down schedules (adversarial "
                    "churn)",
         .schema = std::move(schema),
         .build = [](const Config& config) {
           mc::ScenarioConfig scenario = build_two_node(config);
           if (!config.supplied("churn")) scenario.churn_enabled = false;
           try {
             scenario.schedule = env::parse_schedule(config.get_string("schedule"));
             env::validate(scenario.schedule, scenario.params.nodes.size());
           } catch (const std::invalid_argument& e) {
             throw ConfigError(ConfigError::Kind::kBadValue, "schedule", e.what());
           }
           return scenario;
         }});
  }

  {
    Schema schema = two_node_schema("lbp1", 0.35);
    registry.push_back(
        {.name = "custom-delay",
         .summary = "paper two-node under alternative bundle-delay laws (delay.*)",
         .schema = std::move(schema),
         .build = [](const Config& config) {
           mc::ScenarioConfig scenario = build_two_node(config);
           // The testbed's measured law (Fig. 2) is the scenario's point:
           // default to Erlang per-task delays with the measured setup shift.
           if (!config.supplied("delay.model") && !config.supplied("delay.shift")) {
             scenario.delay_model = std::make_unique<net::ErlangPerTaskDelay>(
                 scenario.params.per_task_delay_mean, 0.005);
           }
           return scenario;
         }});
  }

  // --- topology-structured families (src/net topology layer) ---

  {
    // Ring: the sparsest connected regular graph (diameter floor(n/2)), so
    // neighbourhood policies are at their slowest here — the worst case the
    // diffusion spectral-gap bound in net_topology_test pins.
    Schema schema = n_node_schema("8", "0.1", "100,60,20,40", "diffusion", kGraphPolicies);
    schema.merge(topology_schema("ring")).merge(env_schema("1"));
    registry.push_back(
        {.name = "graph-ring",
         .summary = "n-node cycle exchange graph with neighbourhood-local policies "
                    "(topology=complete reduces to the global-state baseline)",
         .schema = std::move(schema),
         .build = [](const Config& config) { return build_graph(config); }});
  }

  {
    // 2-D torus: the paper's mesh-interconnect cousin; near-square
    // factorisation by default, explicit topology.rows/cols otherwise.
    Schema schema = n_node_schema("16", "0.1", "120,20,60,40", "diffusion", kGraphPolicies);
    schema.merge(topology_schema("torus")).merge(env_schema("1"));
    registry.push_back(
        {.name = "graph-torus",
         .summary = "2-D wrap-around torus exchange graph (rows x cols, default "
                    "near-square) with neighbourhood-local policies",
         .schema = std::move(schema),
         .build = [](const Config& config) { return build_graph(config); }});
  }

  {
    // Random-regular: expander-like constant-degree graphs; with env.* keys
    // and topology.churn.drop > 0 the edge set degrades with the environment
    // state (the dynamic-graph extension).
    Schema schema = n_node_schema("32", "0.25", "120,20,60,40", "probe", kGraphPolicies);
    schema.merge(topology_schema("rr")).merge(env_schema("1"));
    registry.push_back(
        {.name = "graph-rr",
         .summary = "seeded random-regular exchange graph (degree d) with random-probe "
                    "balancing and optional environment-driven edge churn",
         .schema = std::move(schema),
         .build = [](const Config& config) { return build_graph(config); }});
  }

  // --- testbed-engine family (mc::Engine::kTestbed + net channel layer) ---

  {
    // Lossy/bursty state exchange: the Section 3 emulation with the state
    // plane degraded by i.i.d. loss or a k-state Markov (Gilbert-Elliott)
    // channel. Runs on the testbed engine — policies act on the possibly
    // stale state board, so this is where "how does stale state break
    // LBP-1/LBP-2 gains" becomes a one-line channel.burst sweep.
    // The Gilbert-Elliott channel is ON by default (the family exists to
    // model bursty loss); channel.states=0 recovers the i.i.d. exchange.loss
    // plane.
    Schema schema = two_node_schema("lbp2", 1.0);
    schema.merge(channel_schema("2")).merge(env_schema("10"));
    schema.add(opt("aware", OptionType::kBool, "true",
                   "LBP-2's failure compensation consults the advertised (possibly "
                   "stale) peer up/down state instead of shipping blindly — the decision "
                   "the channel's staleness actually corrupts"));
    registry.push_back(
        {.name = "lossy-exchange",
         .summary = "testbed-engine two-node with lossy/bursty UDP state exchange "
                    "(channel.* = k-state Markov channel; Gilbert-Elliott at k=2)",
         .schema = std::move(schema),
         .build =
             [](const Config& config) {
               mc::ScenarioConfig scenario = build_two_node(config);
               apply_channel(scenario, config);
               if (config.get_bool("aware") && config.get_string("policy") == "lbp2") {
                 scenario.policy = std::make_unique<core::Lbp2Policy>(
                     config.get_double("gain"), /*state_aware=*/true);
               }
               if (config.get_bool("channel.env") || env_supplied(config)) {
                 scenario.environment = build_environment(config);
               }
               return scenario;
             },
         .testbed = true});
  }

  return registry;
}

}  // namespace

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec> registry = build_registry();
  return registry;
}

const ScenarioSpec& find_scenario(const std::string& name) {
  const auto& registry = scenario_registry();
  const auto it = std::find_if(registry.begin(), registry.end(),
                               [&](const ScenarioSpec& spec) { return spec.name == name; });
  if (it != registry.end()) return *it;

  std::string known;
  for (const ScenarioSpec& spec : registry) {
    known += (known.empty() ? "" : ", ") + spec.name;
  }
  throw ConfigError(ConfigError::Kind::kUnknownKey, name,
                    "unknown scenario '" + name + "' (known: " + known + ")");
}

core::PolicyPtr make_policy(const Config& config, const std::vector<std::size_t>& workloads) {
  const std::string policy = config.get_string("policy");
  const double gain = config.get_double("gain");
  if (policy == "none") return std::make_unique<core::NoBalancingPolicy>();
  if (policy == "proportional") return std::make_unique<core::ProportionalOncePolicy>();
  if (policy == "lbp2") return std::make_unique<core::Lbp2Policy>(gain);
  if (policy == "probe") {
    return std::make_unique<core::RandomProbePolicy>(config.get_size("probes"));
  }
  if (policy == "diffusion") {
    return std::make_unique<core::DiffusionPolicy>(config.get_double("alpha"));
  }
  if (policy == "periodic") {
    return std::make_unique<core::PeriodicRebalancePolicy>(config.get_double("period"), gain,
                                                           config.get_bool("compensate"));
  }
  // lbp1: the two-node form takes an explicit sender; -1 picks the more-loaded
  // node (the paper's convention). n > 2 uses the one-shot excess-load form.
  if (workloads.size() == 2) {
    long long sender = config.get_int("sender");
    if (sender < 0) sender = workloads[0] >= workloads[1] ? 0 : 1;
    if (sender > 1) {
      throw ConfigError(ConfigError::Kind::kOutOfRange, "sender",
                        "sender must be 0, 1, or -1 for a two-node scenario");
    }
    return std::make_unique<core::Lbp1Policy>(static_cast<int>(sender), gain);
  }
  return std::make_unique<core::Lbp1Policy>(gain);
}

}  // namespace lbsim::cli
