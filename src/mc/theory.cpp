#include "mc/theory.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lbsim::mc {
namespace {

/// SystemView over the scenario's initial condition (t = 0, nothing has run):
/// queue lengths are the configured workloads and up/down follows the
/// initially_down mask. The MC engine shows a policy the same queues at its
/// on_start call, but not the same up flags: it fails an initially-down node
/// only after on_start (the node reads as up there, then on_failure fires at
/// t = 0), whereas this view, like the testbed's decision plane, shows it
/// down. The replayed directives still match the engine's, because no
/// start-only policy reads is_up in on_start.
class InitialView final : public core::SystemView {
 public:
  explicit InitialView(const ScenarioConfig& config) : config_(config) {
    rates_.assign(config.params.nodes);
  }

  [[nodiscard]] std::size_t node_count() const override {
    return config_.workloads.size();
  }
  [[nodiscard]] std::size_t queue_length(int node) const override {
    return config_.workloads.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] bool is_up(int node) const override {
    return !config_.starts_down(static_cast<std::size_t>(node));
  }
  [[nodiscard]] std::span<const markov::NodeParams> params() const override {
    return config_.params.nodes;
  }
  [[nodiscard]] double per_task_delay_mean() const override {
    return config_.params.per_task_delay_mean;
  }
  [[nodiscard]] const core::RateTable& rates() const override { return rates_; }

 private:
  const ScenarioConfig& config_;
  core::RateTable rates_;
};

}  // namespace

TheoryMapping map_to_theory(const ScenarioConfig& config) {
  TheoryMapping mapping;
  LBSIM_REQUIRE(config.policy != nullptr, "scenario needs a policy");
  const std::size_t n = config.params.nodes.size();
  LBSIM_REQUIRE(config.workloads.size() == n, "workload/params size mismatch");

  // The env subsystem's driving processes are all outside the regeneration
  // solvers' iid-exponential world; decline each with its pinned marker (the
  // `lbsim validate` boundary points and validation_test rely on these exact
  // strings). An environment that cannot touch anything (churn off / all
  // lambda_f = 0, no MMPP) is vacuous and falls through.
  const bool any_failures =
      config.churn_enabled &&
      std::any_of(config.params.nodes.begin(), config.params.nodes.end(),
                  [](const markov::NodeParams& node) { return node.lambda_f > 0.0; });
  // Unit multipliers in every state are vacuous for churn: re-arming an
  // exponential TTF at its own rate is distributionally a no-op (that exact
  // reduction is pinned statistically in env_test), so only a state that
  // actually scales the hazard leaves the solvers' model.
  const bool modulates_hazard =
      config.environment.enabled() &&
      std::any_of(config.environment.failure_mult.begin(),
                  config.environment.failure_mult.end(),
                  [](double mult) { return mult != 1.0; });
  // A restricted exchange graph changes what every policy can see and ship;
  // the regeneration solvers assume the complete graph, so this decline comes
  // before any other (a graph-* scenario may also carry env/arrival extras).
  if (!config.topology.complete()) {
    mapping.reason = "neighbourhood-restricted topology";
    return mapping;
  }
  if (modulates_hazard && any_failures) {
    mapping.reason = "environment-modulated churn";
    return mapping;
  }
  if (config.arrivals.active()) {
    mapping.reason = "open arrivals";
    return mapping;
  }
  if (!config.schedule.empty()) {
    mapping.reason = "deterministic schedule";
    return mapping;
  }

  if (config.rebalance_period > 0.0) {
    mapping.reason = "periodic rebalancing timers are outside the regeneration model";
    return mapping;
  }

  // An event-driven policy only leaves the solvers' model if its hooks can
  // actually fire: failures need live churn, recoveries need live churn or an
  // initially-down node.
  const bool hooks_can_fire = any_failures || config.initially_down != 0;
  if (hooks_can_fire && !config.policy->start_only()) {
    mapping.reason = "policy '" + config.policy->name() +
                     "' reacts to failure/recovery events (no closed form)";
    return mapping;
  }

  // Replay the policy's deterministic t = 0 action, capping each directive by
  // what the sender still holds — byte-for-byte the engine's execute() rule.
  InitialView view(config);
  std::vector<std::size_t> queues = config.workloads;
  for (const core::TransferDirective& d : config.policy->on_start(view)) {
    LBSIM_REQUIRE(d.from >= 0 && static_cast<std::size_t>(d.from) < n, "from=" << d.from);
    LBSIM_REQUIRE(d.to >= 0 && static_cast<std::size_t>(d.to) < n && d.to != d.from,
                  "to=" << d.to);
    const std::size_t take = std::min(d.count, queues[static_cast<std::size_t>(d.from)]);
    if (take == 0) continue;
    queues[static_cast<std::size_t>(d.from)] -= take;
    mapping.query.transfers.push_back(
        {.from = d.from, .to = d.to, .count = take});
  }

  // The analytical law is Exp(1/(d * L)) bundle delay; a configured override
  // (Erlang, deterministic, setup shift) only matters if something is in
  // flight.
  if (!mapping.query.transfers.empty() && config.delay_model != nullptr) {
    mapping.reason = "bundle delays follow '" + config.delay_model->describe() +
                     "', not the analytical Exp(1/(d*L)) law";
    return mapping;
  }

  mapping.query.params = config.params;
  if (!config.churn_enabled) {
    // churn=false freezes the failure processes; the solvers see the same
    // system through lambda_f = 0.
    for (markov::NodeParams& node : mapping.query.params.nodes) node.lambda_f = 0.0;
  }
  mapping.query.queues = std::move(queues);
  if (n <= 32) {
    mapping.query.initial_state =
        markov::all_up_state(n) & static_cast<unsigned>(~config.initially_down);
  }
  mapping.ok = true;
  return mapping;
}

}  // namespace lbsim::mc
