#pragma once
/// \file
/// Configuration of the emulated wireless-LAN testbed (paper Section 3).
///
/// The real experiments ran matrix-multiplication on two laptops over IEEE
/// 802.11b/g; we reproduce the system at the level the paper itself models it:
/// task sizes are random (exponential), service time is size / node-speed
/// (hence Exp(lambda_d) per task, Fig. 1), data bundles suffer a per-task
/// exponential delay plus a small connection-setup shift (Fig. 2), and state
/// information is exchanged in small UDP packets that can be lost.

#include <cstdint>

#include "core/policy.hpp"
#include "env/environment.hpp"
#include "markov/params.hpp"
#include "net/channel.hpp"

namespace lbsim::testbed {

struct TestbedConfig {
  markov::MultiNodeParams params;        ///< calibrated rates (Fig. 1 fits)
  std::vector<std::size_t> workloads;    ///< initial tasks per node
  core::PolicyPtr policy;

  /// Communication layer.
  double transfer_setup_shift = 0.005;   ///< TCP setup; the Fig. 2 pdf shift (s)
  double state_broadcast_period = 1.0;   ///< UDP sync period (s)
  double state_latency = 1e-3;           ///< one-way state-packet latency (s)
  double state_loss_probability = 0.0;   ///< UDP loss (i.i.d.; 1 = blackout)

  /// Optional bursty k-state Markov channel for the state plane; when
  /// disabled (states == 0) the i.i.d. loss above applies unchanged.
  net::ChannelSpec channel;
  /// Optional environment CTMC: modulates every node's failure hazard and,
  /// when channel.env_coupled, floors the channel state during storms.
  env::EnvironmentSpec environment;

  /// When true, churn is injected (failure injector of Section 3).
  bool churn_enabled = true;
  /// Bitmask of nodes that start down (bit i); same addressing rule as
  /// mc::ScenarioConfig::initially_down.
  std::uint64_t initially_down = 0;

  [[nodiscard]] bool starts_down(std::size_t i) const noexcept {
    return i < 64 && ((initially_down >> i) & 1u) != 0;
  }

  [[nodiscard]] TestbedConfig clone() const;
};

/// Two-node testbed preset with the paper's measured parameters and the given
/// initial workloads; the policy is supplied by the caller.
[[nodiscard]] TestbedConfig paper_testbed(std::size_t m0, std::size_t m1,
                                          core::PolicyPtr policy);

void validate(const TestbedConfig& config);

}  // namespace lbsim::testbed

namespace lbsim::mc {
struct ScenarioConfig;
}

namespace lbsim::testbed {

/// Converts a registry-built mc::ScenarioConfig into a testbed config — the
/// single mapping shared by `lbsim run --engine=testbed`, the sweep driver,
/// and the validation harness. Consumes the scenario (moves its policy).
/// Throws std::invalid_argument, naming every offending key, for scenario
/// semantics the testbed does not emulate: a periodic policy, a delay model,
/// arrivals, a schedule or a topology.
[[nodiscard]] TestbedConfig from_scenario(mc::ScenarioConfig&& scenario);

}  // namespace lbsim::testbed
