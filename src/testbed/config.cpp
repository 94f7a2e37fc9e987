#include "testbed/config.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace lbsim::testbed {

void check_emulable(const mc::ScenarioConfig& config) {
  LBSIM_REQUIRE(config.policy != nullptr, "testbed needs a policy");
  LBSIM_REQUIRE(!config.channel.env_coupled || config.environment.enabled(),
                "channel env coupling needs a configured environment");
  std::string unsupported;
  const auto refuse = [&unsupported](const std::string& what) {
    if (!unsupported.empty()) unsupported += ", ";
    unsupported += what;
  };
  if (config.rebalance_period > 0.0) {
    // Every round-based policy (periodic, probe, diffusion) runs off this tick.
    std::ostringstream round;
    round << "a periodic round (" << config.policy->name() << " every "
          << config.rebalance_period << " s)";
    refuse(round.str());
  }
  if (config.delay_model != nullptr) refuse("delay.model/delay.shift");
  if (config.arrivals.active()) refuse("arrivals.*");
  if (!config.schedule.empty()) refuse("schedule");
  if (!config.topology.complete()) refuse("topology");
  if (!unsupported.empty()) {
    throw std::invalid_argument("the testbed engine does not emulate " + unsupported +
                                " for this scenario; use the default mc engine");
  }
}

mc::ScenarioConfig from_scenario(mc::ScenarioConfig&& scenario) {
  check_emulable(scenario);
  return std::move(scenario);
}

}  // namespace lbsim::testbed
