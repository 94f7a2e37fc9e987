#pragma once
/// \file
/// The scenario registry: named, self-describing experiment families that the
/// `lbsim run` / `lbsim sweep` subcommands (and future workload PRs) build
/// mc::ScenarioConfig instances from.
///
/// Every family declares a typed Schema (shared policy/delay/churn keys plus
/// its own), so `lbsim list <scenario>` is generated documentation and every
/// key is validated before a single replication runs. New families register by
/// appending a ScenarioSpec in registry.cpp — no new binaries required.

#include <functional>
#include <string>
#include <vector>

#include "cli/config.hpp"
#include "mc/scenario.hpp"

namespace lbsim::cli {

/// One named scenario family.
struct ScenarioSpec {
  std::string name;
  std::string summary;
  Schema schema;
  /// Builds a validated, ready-to-run scenario from a resolved Config.
  std::function<mc::ScenarioConfig(const Config&)> build;
  /// Infinite-horizon family: routed to the steady-state engine
  /// (mc::run_steady) instead of the finite completion-time engines.
  bool steady = false;
  /// Emulation family: its own engine is the testbed (lossy state plane,
  /// distributed decisions), and it runs on no other. Every other
  /// finite-horizon family runs on mc unless the testbed is named
  /// (`--engine=testbed`, `engine=testbed`).
  bool testbed = false;
};

/// All registered families, in presentation order.
[[nodiscard]] const std::vector<ScenarioSpec>& scenario_registry();

/// Lookup by name; throws ConfigError(kUnknownKey) with a did-you-mean
/// suggestion when `name` is not registered.
[[nodiscard]] const ScenarioSpec& find_scenario(const std::string& name);

/// Builds the policy described by the shared `policy`/`gain`/`sender`/
/// `period`/`compensate` keys for a system of `node_count` nodes with initial
/// `workloads` (used to auto-pick the LBP-1 sender when sender = -1).
[[nodiscard]] core::PolicyPtr make_policy(const Config& config,
                                          const std::vector<std::size_t>& workloads);

}  // namespace lbsim::cli
