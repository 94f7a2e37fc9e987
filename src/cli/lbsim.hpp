#pragma once
/// \file
/// The `lbsim` command-line entry point, exposed as a library function so the
/// test suites can drive every subcommand in-process.
///
/// Subcommands:
///   lbsim list [scenario]          registered scenarios / one scenario's keys
///   lbsim run <scenario> [k=v...]  one configuration through the MC engine
///                                  (or --engine=testbed)
///   lbsim sweep <scenario> [axes]  cartesian sweep (key=v1,v2 / key=lo:hi:step)
///   lbsim validate [family]        theory-vs-simulation statistical gate
///   lbsim reproduce <artefact>     regenerate a paper table/figure
///   lbsim perf                     timing baseline (perf_des/perf_mc/perf_solver, ...)
///
/// Each subcommand accepts exactly the flags its usage text lists, plus the
/// global --help; any other flag is a usage error.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "markov/params.hpp"

namespace lbsim::cli {

/// Runs one lbsim invocation; returns the process exit code (0 success, 2 on
/// usage/config errors, unknown flags included). Writes results to `out` and
/// diagnostics to `err`; never throws.
int run_lbsim(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

/// The warning `lbsim run` writes to stderr when a balancing policy silently
/// behaved like policy=none: it moved no task in any replication
/// (`mean_tasks_moved` is 0) although the initial `workloads` put some node at
/// least one task above its fair share. LBP-1/LBP-2 round every per-pair
/// share, and at large n each share rounds to zero. Empty when there is
/// nothing to report. It reads only the run's result, so the policy hot path
/// carries no counter.
[[nodiscard]] std::string degeneration_warning(const core::LoadBalancingPolicy& policy,
                                               const markov::MultiNodeParams& params,
                                               const std::vector<std::size_t>& workloads,
                                               double mean_tasks_moved);

}  // namespace lbsim::cli
