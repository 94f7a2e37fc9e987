#pragma once
/// \file
/// What the emulated wireless-LAN testbed (paper Section 3) runs, and what it
/// refuses to run.
///
/// The real experiments ran matrix-multiplication on two laptops over IEEE
/// 802.11b/g; we reproduce the system at the level the paper itself models it:
/// task sizes are random (exponential), service time is size / node-speed
/// (hence Exp(lambda_d) per task, Fig. 1), data bundles suffer a per-task
/// exponential delay plus a small connection-setup shift (Fig. 2), and state
/// information is exchanged in small UDP packets that can be lost. The
/// testbed's config is the scenario both engines run, mc::ScenarioConfig: its
/// transfer_setup_shift, exchange_period, state_latency,
/// state_loss_probability and channel describe this communication layer.

#include "mc/scenario.hpp"

namespace lbsim::testbed {

/// The name perfbench still spells the testbed's config by.
using TestbedConfig = mc::ScenarioConfig;

/// Throws std::invalid_argument unless the testbed engine can run `config`.
/// It needs a policy, and an environment behind a channel coupled to one.
/// It emulates no periodic round, delay model, arrivals, schedule or
/// topology: each needs semantics of its own on a node-local view, so rather
/// than silently drop one, the message names every one the config sets (mc is
/// the engine for those keys).
void check_emulable(const mc::ScenarioConfig& config);

/// check_emulable(scenario), then returns the scenario: the check in the form
/// perfbench calls it.
[[nodiscard]] mc::ScenarioConfig from_scenario(mc::ScenarioConfig&& scenario);

}  // namespace lbsim::testbed
