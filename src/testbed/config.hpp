#pragma once
/// \file
/// The names perfbench still spells the testbed's config and its check by.
/// The testbed's config is the scenario both engines run, mc::ScenarioConfig,
/// and mc::check_emulable says what the testbed emulates.

#include <utility>

#include "mc/scenario.hpp"

namespace lbsim::testbed {

using TestbedConfig = mc::ScenarioConfig;

/// mc::check_emulable(scenario), then returns the scenario.
[[nodiscard]] inline mc::ScenarioConfig from_scenario(mc::ScenarioConfig&& scenario) {
  mc::check_emulable(scenario);
  return std::move(scenario);
}

}  // namespace lbsim::testbed
