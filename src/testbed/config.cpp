#include "testbed/config.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "mc/scenario.hpp"
#include "util/error.hpp"

namespace lbsim::testbed {

TestbedConfig TestbedConfig::clone() const {
  TestbedConfig copy;
  copy.params = params;
  copy.workloads = workloads;
  copy.policy = policy ? policy->clone() : nullptr;
  copy.transfer_setup_shift = transfer_setup_shift;
  copy.state_broadcast_period = state_broadcast_period;
  copy.state_latency = state_latency;
  copy.state_loss_probability = state_loss_probability;
  copy.channel = channel;
  copy.environment = environment;
  copy.churn_enabled = churn_enabled;
  copy.initially_down = initially_down;
  return copy;
}

TestbedConfig paper_testbed(std::size_t m0, std::size_t m1, core::PolicyPtr policy) {
  const markov::TwoNodeParams two = markov::ipdps2006_params();
  TestbedConfig config;
  config.params.nodes = {two.nodes[0], two.nodes[1]};
  config.params.per_task_delay_mean = two.per_task_delay_mean;
  config.workloads = {m0, m1};
  config.policy = std::move(policy);
  return config;
}

void validate(const TestbedConfig& config) {
  markov::validate(config.params);
  const std::size_t n = config.params.nodes.size();
  LBSIM_REQUIRE(n >= 2, "testbed needs >= 2 nodes");
  LBSIM_REQUIRE(config.workloads.size() == n, "workloads/nodes size mismatch");
  LBSIM_REQUIRE(config.policy != nullptr, "testbed needs a policy");
  LBSIM_REQUIRE(config.transfer_setup_shift >= 0.0, "setup shift");
  LBSIM_REQUIRE(config.state_broadcast_period > 0.0, "broadcast period");
  LBSIM_REQUIRE(config.state_latency >= 0.0, "state latency");
  // Loss 1.0 is the legitimate total-blackout boundary; only > 1 is an error.
  LBSIM_REQUIRE(config.state_loss_probability >= 0.0 && config.state_loss_probability <= 1.0,
                "state loss");
  net::validate(config.channel);
  env::validate(config.environment);
  LBSIM_REQUIRE(!config.channel.env_coupled || config.environment.enabled(),
                "channel env coupling needs a configured environment");
  if (n < 64) {
    LBSIM_REQUIRE(config.initially_down < (std::uint64_t{1} << n),
                  "initially_down mask addresses nodes >= " << n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (config.starts_down(i)) {
      LBSIM_REQUIRE(config.params.nodes[i].lambda_r > 0.0,
                    "initially-down node " << i << " cannot recover (lambda_r == 0)");
    }
  }
}

TestbedConfig from_scenario(mc::ScenarioConfig&& scenario) {
  // The testbed emulates its own communication layer and start-up sequence;
  // refuse scenario semantics it cannot honour rather than silently dropping
  // them (mc is the engine for those keys).
  std::string unsupported;
  const auto refuse = [&unsupported](const char* what) {
    if (!unsupported.empty()) unsupported += ", ";
    unsupported += what;
  };
  if (scenario.rebalance_period > 0.0) refuse("policy=periodic");
  if (scenario.delay_model != nullptr) refuse("delay.model/delay.shift");
  if (scenario.arrivals.active()) refuse("arrivals.*");
  if (!scenario.schedule.empty()) refuse("schedule");
  if (!scenario.topology.complete()) refuse("topology");
  if (!unsupported.empty()) {
    throw std::invalid_argument("the testbed engine does not emulate " + unsupported +
                                " for this scenario; use the default mc engine");
  }
  TestbedConfig config;
  config.params = scenario.params;
  config.workloads = scenario.workloads;
  config.policy = std::move(scenario.policy);
  config.state_broadcast_period = scenario.exchange_period;
  config.state_latency = scenario.exchange_latency;
  config.state_loss_probability = scenario.exchange_loss;
  config.channel = scenario.state_channel;
  config.environment = scenario.environment;
  config.churn_enabled = scenario.churn_enabled;
  config.initially_down = scenario.initially_down;
  return config;
}

}  // namespace lbsim::testbed
