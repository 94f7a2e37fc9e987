// End-to-end tests of the lbsim dispatcher driven in-process, including the
// golden CSV-output check: `lbsim reproduce table1/table2 --golden-only` must
// emit exactly the solver values pinned in tests/markov_golden_test.cpp.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/lbsim.hpp"
#include "core/baseline.hpp"
#include "core/lbp2.hpp"
#include "test_support.hpp"

namespace lbsim::cli {
namespace {

// The pins of tests/markov_golden_test.cpp (see the warning there before
// editing): two-node solvers at (m0,m1) = (100,60), gain 0.35.
constexpr double kGoldenMeanNoTransit = 141.21564887669729;
constexpr double kGoldenMeanLbp1 = 116.74907081578611;
constexpr double kGoldenCdfMedian = 108.65;
constexpr double kGoldenCdfP90 = 169.85;

struct CliResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  args.insert(args.begin(), "lbsim");
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out, err;
  CliResult result;
  result.exit_code = run_lbsim(static_cast<int>(argv.size()), argv.data(), out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// Extracts the numeric value of the golden-CSV row whose metric contains
/// `metric` (the value is the cell after the last comma).
double golden_value(const std::string& csv, const std::string& metric) {
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(metric) == std::string::npos) continue;
    const std::size_t comma = line.rfind(',');
    if (comma == std::string::npos) break;
    return std::stod(line.substr(comma + 1));
  }
  ADD_FAILURE() << "metric '" << metric << "' not found in:\n" << csv;
  return 0.0;
}

TEST(CliReproduce, Table1GoldenCsvMatchesThePinnedSolverValues) {
  const CliResult result = run({"reproduce", "table1", "--golden-only", "--format=csv"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("# command=lbsim reproduce table1"), std::string::npos);
  EXPECT_NEAR_REL(golden_value(result.out, "mean_no_transit"), kGoldenMeanNoTransit, 1e-9);
  EXPECT_NEAR_REL(golden_value(result.out, "lbp1_mean"), kGoldenMeanLbp1, 1e-9);
}

TEST(CliReproduce, Table2GoldenCsvMatchesThePinnedCdfQuantiles) {
  const CliResult result = run({"reproduce", "table2", "--golden-only", "--format=csv"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NEAR_REL(golden_value(result.out, "lbp1_cdf_median"), kGoldenCdfMedian, 1e-9);
  EXPECT_NEAR_REL(golden_value(result.out, "lbp1_cdf_p90"), kGoldenCdfP90, 1e-9);
}

TEST(CliReproduce, MetadataRecordsOnlyTheCountTheArtefactRan) {
  // fig5 runs no replications, so the --reps it ignored is not echoed.
  const CliResult fig5 = run({"reproduce", "fig5", "--quick", "--reps=7", "--format=csv"});
  ASSERT_EQ(fig5.exit_code, 0) << fig5.err;
  EXPECT_EQ(fig5.out.find("replications"), std::string::npos) << fig5.out;
  // table1 runs 10 testbed realizations at --quick and no MC replications.
  const CliResult table1 = run({"reproduce", "table1", "--quick", "--reps=7", "--format=csv"});
  ASSERT_EQ(table1.exit_code, 0) << table1.err;
  EXPECT_NE(table1.out.find("# replications=10\n"), std::string::npos) << table1.out;
}

TEST(CliReproduce, GoldenOnlyRejectedForOtherArtifacts) {
  const CliResult result = run({"reproduce", "fig1", "--golden-only"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("golden-only"), std::string::npos);
}

TEST(CliReproduce, RejectsUnknownFormats) {
  const CliResult result = run({"reproduce", "table1", "--golden-only", "--format=xml"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("--format"), std::string::npos);
}

TEST(CliRun, TestbedEngineRejectsSemanticsItCannotEmulate) {
  // cold-start defaults node 0 down; since the channel-layer PR the testbed
  // honours initially-down nodes as an initial condition, so it runs.
  const CliResult down = run({"run", "cold-start", "--engine=testbed", "--reps=2"});
  EXPECT_EQ(down.exit_code, 0) << down.err;

  const CliResult periodic =
      run({"run", "periodic-rebalance", "--engine=testbed", "--reps=2"});
  EXPECT_EQ(periodic.exit_code, 2);
  EXPECT_NE(periodic.err.find("periodic"), std::string::npos);

  // The probe and diffusion policies run off the same round timer; the
  // refusal names the policy that was set and its period, not policy=periodic.
  const CliResult probe =
      run({"run", "graph-rr", "topology=complete", "--engine=testbed", "--reps=2"});
  EXPECT_EQ(probe.exit_code, 2);
  EXPECT_NE(probe.err.find("RandomProbe(d=2) every 10 s"), std::string::npos) << probe.err;
  EXPECT_EQ(probe.err.find("policy=periodic"), std::string::npos) << probe.err;
  const CliResult diffusion = run({"run", "graph-ring", "topology=complete", "policy=diffusion",
                                   "--engine=testbed", "--reps=2"});
  EXPECT_EQ(diffusion.exit_code, 2);
  EXPECT_NE(diffusion.err.find("Diffusion(alpha="), std::string::npos) << diffusion.err;
  EXPECT_EQ(diffusion.err.find("policy=periodic"), std::string::npos) << diffusion.err;

  // Plain scenarios still run on the testbed.
  const CliResult ok = run({"run", "paper-two-node", "--engine=testbed", "--reps=2"});
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
}

TEST(CliRun, AnEngineTheFamilyCannotRunExits2NamingTheFamily) {
  // The engine named is the one that runs, or the command exits 2: an
  // explicit mc on lossy-exchange used to run the testbed without a word.
  const std::vector<std::vector<std::string>> refused = {
      {"run", "lossy-exchange", "--engine=mc", "--reps=3"},
      {"run", "lossy-exchange", "engine=mc", "--reps=3"},
      {"sweep", "lossy-exchange", "engine=mc", "gain=0.5,1", "--reps=2"},
      {"sweep", "lossy-exchange", "engine=mc", "gain=0.5,1", "--dry-run"},
      {"run", "open-steady", "--engine=testbed", "--reps=1"},
      {"sweep", "open-steady", "engine=testbed", "rho=0.5,0.6", "--dry-run"},
  };
  for (const std::vector<std::string>& args : refused) {
    const CliResult result = run(args);
    EXPECT_EQ(result.exit_code, 2) << args[1] << " " << args[2];
    EXPECT_NE(result.err.find("scenario '" + args[1] + "'"), std::string::npos) << result.err;
    EXPECT_NE(result.err.find("engine runs it"), std::string::npos) << result.err;
  }

  // --vr and --compare=theory stay refused on the testbed, whichever way it
  // was reached, in run and sweep alike.
  const std::vector<std::pair<std::vector<std::string>, std::string>> testbed_refusals = {
      {{"run", "lossy-exchange", "--vr=antithetic", "--reps=2"}, "--vr"},
      {{"run", "multi-node", "--engine=testbed", "--vr=cv", "--reps=2"}, "--vr"},
      {{"sweep", "lossy-exchange", "gain=0.5,1", "--vr=antithetic", "--dry-run"}, "--vr"},
      {{"sweep", "multi-node", "engine=testbed", "mc.vr=none,cv", "--dry-run"}, "mc.vr"},
      {{"sweep", "lossy-exchange", "gain=0.5,1", "--compare=theory", "--dry-run"}, "--compare"},
      {{"sweep", "multi-node", "engine=testbed", "gain=0.5,1", "--compare=theory", "--reps=2"},
       "--compare"},
  };
  for (const auto& [args, flag] : testbed_refusals) {
    const CliResult result = run(args);
    EXPECT_EQ(result.exit_code, 2) << args[1] << " " << flag;
    EXPECT_NE(result.err.find(flag), std::string::npos) << result.err;
    EXPECT_NE(result.err.find("testbed engine"), std::string::npos) << result.err;
  }
}

TEST(CliReproduce, UnknownArtifactFailsWithTheKnownList) {
  const CliResult result = run({"reproduce", "table9"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("table1"), std::string::npos);
}

TEST(CliList, ShowsScenariosArtifactsAndSchemas) {
  const CliResult list = run({"list"});
  ASSERT_EQ(list.exit_code, 0);
  for (const char* expected : {"paper-two-node", "churn-storm", "table1", "fig5"}) {
    EXPECT_NE(list.out.find(expected), std::string::npos) << expected;
  }
  const CliResult schema = run({"list", "multi-node"});
  ASSERT_EQ(schema.exit_code, 0);
  EXPECT_NE(schema.out.find("lambda_d"), std::string::npos);
  EXPECT_NE(schema.out.find("double-list"), std::string::npos);
}

TEST(CliRun, RunsAScenarioWithOverrides) {
  const CliResult result = run({"run", "paper-two-node", "gain=0.4", "m0=40", "m1=20",
                                "--reps=5", "--threads=1", "--format=csv"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("# scenario=paper-two-node"), std::string::npos);
  EXPECT_NE(result.out.find("LBP-1(K=0.4"), std::string::npos);
  EXPECT_NE(result.out.find("# replications=5"), std::string::npos);
}

TEST(CliRun, WarnsWhenABalancingPolicyMovedNothing) {
  // The rounding cliff of many-node-churn: at n = 256 every LBP-2 share
  // rounds to zero tasks; at n = 128 the t = 0 split still moves tasks.
  const CliResult cliff = run({"run", "many-node-churn", "nodes=256", "--reps=3",
                               "--threads=1", "--format=csv"});
  ASSERT_EQ(cliff.exit_code, 0) << cliff.err;
  EXPECT_NE(cliff.err.find("warning: LBP-2(K=1) moved no task"), std::string::npos)
      << cliff.err;
  EXPECT_NE(cliff.out.find(",0.00,0.00\n"), std::string::npos) << cliff.out;
  EXPECT_EQ(cliff.out.find("warning"), std::string::npos);  // stdout stays the table

  const CliResult moving =
      run({"run", "many-node-churn", "nodes=128", "--reps=3", "--threads=1"});
  ASSERT_EQ(moving.exit_code, 0) << moving.err;
  EXPECT_EQ(moving.err, "");

  const CliResult none = run(
      {"run", "many-node-churn", "nodes=256", "policy=none", "--reps=3", "--threads=1"});
  ASSERT_EQ(none.exit_code, 0) << none.err;
  EXPECT_EQ(none.err, "");
}

TEST(CliRun, DegenerationWarningNeedsOneTaskOfExcess) {
  markov::MultiNodeParams params;
  params.nodes = {markov::NodeParams{1.0, 0.0, 0.0}, markov::NodeParams{1.0, 0.0, 0.0}};
  const core::Lbp2Policy lbp2(1.0);
  EXPECT_NE(degeneration_warning(lbp2, params, {12, 10}, 0.0), "");  // excess 1
  EXPECT_EQ(degeneration_warning(lbp2, params, {11, 10}, 0.0), "");  // excess 0.5
  EXPECT_EQ(degeneration_warning(lbp2, params, {12, 10}, 0.5), "");  // something moved
  EXPECT_EQ(degeneration_warning(core::NoBalancingPolicy{}, params, {12, 10}, 0.0), "");
}

TEST(CliRun, ReportsConfigErrorsWithExitCode2) {
  const CliResult unknown = run({"run", "paper-two-node", "gian=0.4"});
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.err.find("did you mean 'gain'"), std::string::npos);

  const CliResult missing = run({"run"});
  EXPECT_EQ(missing.exit_code, 2);

  const CliResult badcmd = run({"frobnicate"});
  EXPECT_EQ(badcmd.exit_code, 2);
  EXPECT_NE(badcmd.err.find("unknown command"), std::string::npos);

  // Negative engine counts, as flags and as config keys: run, sweep and
  // validate share one check, which refuses them before anything runs.
  const CliResult threads = run({"run", "paper-two-node", "--threads=-1", "--reps=2"});
  EXPECT_EQ(threads.exit_code, 2);
  EXPECT_NE(threads.err.find("--threads must be >= 0"), std::string::npos) << threads.err;
  const CliResult reps =
      run({"sweep", "paper-two-node", "gain=0.2,0.4", "--reps=-1", "--dry-run"});
  EXPECT_EQ(reps.exit_code, 2);
  EXPECT_NE(reps.err.find("--reps must be >= 1"), std::string::npos) << reps.err;
  const CliResult key = run({"run", "paper-two-node", "mc.threads=-1", "--reps=2"});
  EXPECT_EQ(key.exit_code, 2);
  EXPECT_NE(key.err.find("mc.threads must be >= 0"), std::string::npos) << key.err;
  // reproduce reads both of its counts through the same check.
  const CliResult realizations = run({"reproduce", "table1", "--quick", "--realizations=-1"});
  EXPECT_EQ(realizations.exit_code, 2);
  EXPECT_NE(realizations.err.find("--realizations must be >= 1"), std::string::npos)
      << realizations.err;
  const CliResult mc_reps = run({"reproduce", "table2", "--quick", "--reps=-1"});
  EXPECT_EQ(mc_reps.exit_code, 2);
  EXPECT_NE(mc_reps.err.find("--reps must be >= 1"), std::string::npos) << mc_reps.err;
  // validate refuses a gate that no point could fail (NaN compares false) and
  // an explicit --sigma that is not > 0, naming the flag.
  for (const std::string flag : {"--ks-slack=nan", "--sigma=nan", "--sigma=0"}) {
    const CliResult gate = run({"validate", "paper-two-node", "--reps=2", flag});
    EXPECT_EQ(gate.exit_code, 2) << flag << "\n" << gate.out;
    EXPECT_NE(gate.err.find(flag.substr(0, flag.find('='))), std::string::npos) << gate.err;
  }
}

// ---------- seeds: run, sweep, validate and reproduce read them through one
// check, which takes 1 to 2^64 - 1 and refuses anything else before a
// replication runs ----------

constexpr char kLargestSeed[] = "18446744073709551615";

/// Expects `args` to exit 2 naming `key`, its range and how to get the default.
void expect_seed_refused(const std::vector<std::string>& args, const std::string& key) {
  const CliResult result = run(args);
  EXPECT_EQ(result.exit_code, 2) << result.out;
  EXPECT_NE(result.err.find(key + " must be an integer from 1 to " + kLargestSeed),
            std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("omit it for the default seed"), std::string::npos) << result.err;
}

TEST(CliSeed, ZeroIsRefused) {
  // 0 used to run the default seed without a word.
  expect_seed_refused({"run", "paper-two-node", "--reps=2", "--seed=0"}, "--seed");
  expect_seed_refused({"validate", "paper-two-node", "--reps=2", "--seed=0"}, "--seed");
  expect_seed_refused({"reproduce", "fig4", "--quick", "--seed=0"}, "--seed");
}

TEST(CliSeed, NegativeIsRefused) {
  // A negative seed used to wrap to 2^64 minus its magnitude.
  expect_seed_refused({"run", "paper-two-node", "--reps=2", "--seed=-5"}, "--seed");
  expect_seed_refused({"validate", "paper-two-node", "--reps=2", "--seed=-5"}, "--seed");
  expect_seed_refused({"reproduce", "fig4", "--quick", "--seed=-5"}, "--seed");
}

TEST(CliSeed, ConfigKeyAndSweepAxisAreCheckedLikeTheFlag) {
  expect_seed_refused({"run", "paper-two-node", "--reps=2", "mc.seed=-3"}, "mc.seed");
  expect_seed_refused({"sweep", "paper-two-node", "gain=0.2,0.4", "mc.seed=0", "--dry-run"},
                      "mc.seed");
  expect_seed_refused({"sweep", "paper-two-node", "mc.seed=1,-3", "--dry-run"}, "mc.seed");
}

TEST(CliSeed, OverflowIsRefused) {
  // One past the largest seed used to exit with only "lbsim: error: stoll".
  const std::string past = "--seed=18446744073709551616";
  expect_seed_refused({"run", "paper-two-node", "--reps=2", past}, "--seed");
  expect_seed_refused({"validate", "paper-two-node", "--reps=2", past}, "--seed");
  expect_seed_refused({"sweep", "paper-two-node", "gain=0.2,0.4", past, "--dry-run"}, "--seed");
}

TEST(CliSeed, MalformedIsRefused) {
  for (const std::string seed : {"--seed=12x", "--seed=", "--seed=-"}) {
    const CliResult result = run({"run", "paper-two-node", "--reps=2", seed});
    EXPECT_EQ(result.exit_code, 2) << seed;
    EXPECT_NE(result.err.find("for key '--seed' is not an integer"), std::string::npos)
        << result.err;
  }
}

TEST(CliSeed, PrintedSeedsRunAsGiven) {
  // The largest seed, and the one that --seed=-5 used to wrap to, run as given
  // and are printed back.
  const auto data = [](const std::string& csv) {
    return csv.substr(csv.find("\nscenario,"));  // past the # metadata lines
  };
  const CliResult fallback = run({"run", "paper-two-node", "--reps=4", "--format=csv"});
  for (const std::string& seed :
       {std::string(kLargestSeed), std::string("18446744073709551611")}) {
    const CliResult result =
        run({"run", "paper-two-node", "--reps=4", "--format=csv", "--seed=" + seed});
    ASSERT_EQ(result.exit_code, 0) << result.err;
    EXPECT_NE(result.out.find("# seed=" + seed + "\n"), std::string::npos) << result.out;
    EXPECT_NE(data(result.out), data(fallback.out)) << seed;
  }
  const CliResult sweep = run({"sweep", "paper-two-node", "gain=0.2,0.4", "--format=csv",
                               std::string("mc.seed=") + kLargestSeed, "--dry-run"});
  EXPECT_EQ(sweep.exit_code, 0) << sweep.err;
  EXPECT_NE(sweep.out.find(std::string("# seed=") + kLargestSeed + "\n"), std::string::npos)
      << sweep.out;
  const CliResult fig4 = run(
      {"reproduce", "fig4", "--quick", "--format=csv", std::string("--seed=") + kLargestSeed});
  EXPECT_EQ(fig4.exit_code, 0) << fig4.err;
  EXPECT_NE(fig4.out.find(std::string("# seed=") + kLargestSeed + "\n"), std::string::npos)
      << fig4.out;
}

/// The `--flag` tokens of `command`'s section of the usage text: from its
/// "  lbsim <command>" line up to the next subcommand or blank line.
std::vector<std::string> usage_flags(const std::string& usage, const std::string& command) {
  std::istringstream in(usage);
  std::vector<std::string> flags;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.rfind("  lbsim ", 0) == 0) {
      inside = line.rfind("  lbsim " + command + " ", 0) == 0;
    }
    if (!inside) continue;
    for (std::size_t at = line.find("--"); at != std::string::npos; at = line.find("--", at)) {
      const std::size_t end = line.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at + 2);
      flags.push_back(line.substr(at, end - at));
      at = end;
    }
  }
  return flags;
}

TEST(CliFlags, UnknownFlagsFailWithADidYouMean) {
  const CliResult typo = run({"run", "paper-two-node", "--rep=5"});
  EXPECT_EQ(typo.exit_code, 2);
  EXPECT_NE(typo.err.find("lbsim run has no flag '--rep' (did you mean '--reps'?)"),
            std::string::npos)
      << typo.err;

  // The removed event-queue and perf-gate flags are rejected, not ignored.
  const CliResult queue = run({"run", "many-node-churn", "--shards=8"});
  EXPECT_EQ(queue.exit_code, 2);
  EXPECT_NE(queue.err.find("has no flag '--shards'"), std::string::npos) << queue.err;
  const CliResult check = run({"perf", "--check"});
  EXPECT_EQ(check.exit_code, 2);
  EXPECT_NE(check.err.find("has no flag '--check'"), std::string::npos) << check.err;
  const CliResult list = run({"list", "--format=csv"});
  EXPECT_EQ(list.exit_code, 2);
  // So is the removed global logger flag.
  const CliResult logger = run({"run", "paper-two-node", "--reps=2", "--log-level=warn"});
  EXPECT_EQ(logger.exit_code, 2);
  EXPECT_NE(logger.err.find("has no flag '--log-level'"), std::string::npos) << logger.err;
}

TEST(CliFlags, EverySubcommandAcceptsTheFlagsItsUsageLists) {
  const std::string usage = run({"--help"}).out;
  // Each probe carries a bad positional, so it fails right after the flag
  // check without running anything; only whether the flag passed matters.
  const auto check = [&usage](const std::vector<std::string>& probe) {
    const std::vector<std::string> flags = usage_flags(usage, probe[0]);
    EXPECT_GE(flags.size(), 3u) << probe[0];
    for (const std::string& flag : flags) {
      std::vector<std::string> args = probe;
      args.push_back(flag + "=x");
      const CliResult result = run(args);
      EXPECT_EQ(result.exit_code, 2) << probe[0] << " " << flag;
      EXPECT_EQ(result.err.find("has no flag"), std::string::npos) << result.err;
    }
    std::vector<std::string> args = probe;
    args.push_back("--no-such-flag");
    EXPECT_NE(run(args).err.find("has no flag '--no-such-flag'"), std::string::npos)
        << probe[0];
  };
  check({"run", "no-such-scenario"});
  check({"sweep", "no-such-scenario"});
  check({"validate", "a", "b"});
  check({"reproduce"});
  check({"perf", "extra"});
}

TEST(CliSweepCommand, RemovedQueueKeyIsAnUnknownKey) {
  const CliResult axis = run({"sweep", "many-node-churn", "mc.shards=1,8", "--dry-run"});
  EXPECT_EQ(axis.exit_code, 2);
  EXPECT_NE(axis.err.find("unknown key 'mc.shards'"), std::string::npos) << axis.err;
  const CliResult fixed = run({"run", "many-node-churn", "mc.shards=8", "--reps=2"});
  EXPECT_EQ(fixed.exit_code, 2);
  EXPECT_NE(fixed.err.find("unknown key 'mc.shards'"), std::string::npos) << fixed.err;
}

TEST(CliSweepCommand, DryRunPrintsTheGrid) {
  const CliResult result =
      run({"sweep", "paper-two-node", "gain=0.1:0.3:0.1", "m0=50,100", "--dry-run"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("dry run: 6 grid points"), std::string::npos);
  EXPECT_NE(result.out.find("LBP-1"), std::string::npos);
}

TEST(CliHelp, UsageOnHelpFlagAndNoArgs) {
  EXPECT_EQ(run({"--help"}).exit_code, 0);
  const CliResult bare = run({});
  EXPECT_EQ(bare.exit_code, 2);
  EXPECT_NE(bare.out.find("Usage:"), std::string::npos);
}

}  // namespace
}  // namespace lbsim::cli
