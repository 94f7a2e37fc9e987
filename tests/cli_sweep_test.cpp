// Unit tests for the sweep engine: axis grammar, cartesian expansion, and
// dry-run/real sweeps over a registered scenario.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "cli/lbsim.hpp"
#include "cli/sweep.hpp"
#include "test_support.hpp"

namespace lbsim::cli {
namespace {

TEST(CliSweepAxis, ParsesExplicitLists) {
  const SweepAxis axis = parse_axis("gain=0.2,0.5,0.9");
  EXPECT_EQ(axis.key, "gain");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"0.2", "0.5", "0.9"}));
}

TEST(CliSweepAxis, ParsesInclusiveRanges) {
  const SweepAxis axis = parse_axis("gain=0.1:0.5:0.2");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"0.1", "0.3", "0.5"}));
  // Endpoint reached exactly even with floating-point accumulation.
  const SweepAxis fine = parse_axis("gain=0:1:0.1");
  ASSERT_EQ(fine.values.size(), 11u);
  EXPECT_EQ(fine.values.front(), "0");
  EXPECT_EQ(fine.values.back(), "1");
}

TEST(CliSweepAxis, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_axis("gain"), ConfigError);
  EXPECT_THROW((void)parse_axis("=1,2"), ConfigError);
  EXPECT_THROW((void)parse_axis("gain="), ConfigError);
  EXPECT_THROW((void)parse_axis("gain=1:0:0.1"), ConfigError);   // hi < lo
  EXPECT_THROW((void)parse_axis("gain=0:1:-0.1"), ConfigError);  // step <= 0
  // Non-numeric colon bodies are NOT ranges: they fall back to the list
  // grammar (schedule timelines need this) and fail later at schema
  // resolution when the key is numeric.
  const SweepAxis not_a_range = parse_axis("gain=a:b:c");
  EXPECT_EQ(not_a_range.values, (std::vector<std::string>{"a:b:c"}));
}

TEST(CliSweepGrid, ExpandsCartesianProductRowMajor) {
  const std::vector<SweepAxis> axes = {{"a", {"1", "2"}}, {"b", {"x", "y", "z"}}};
  const auto grid = expand_grid(axes);
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0], (std::vector<std::pair<std::string, std::string>>{{"a", "1"}, {"b", "x"}}));
  EXPECT_EQ(grid[1][1].second, "y");
  EXPECT_EQ(grid[2][1].second, "z");
  EXPECT_EQ(grid[3][0].second, "2");  // first axis slowest
  EXPECT_EQ(grid[5],
            (std::vector<std::pair<std::string, std::string>>{{"a", "2"}, {"b", "z"}}));
}

TEST(CliSweep, DryRunValidatesEveryPointWithoutRunning) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  SweepOptions options;
  options.dry_run = true;
  const SweepResult result =
      run_sweep(spec, {}, {parse_axis("gain=0.1:0.9:0.2"), parse_axis("m0=50,100")}, options);
  EXPECT_EQ(result.table.rows(), 10u);
  // Dry-run rows carry the resolved policy name, proving the build ran
  // (m0=50 < m1=60, so the auto-picked LBP-1 sender is node 1).
  EXPECT_EQ(result.table.row(0).at(2), "LBP-1(K=0.1, sender=1)");
  EXPECT_EQ(result.metadata.scenario, "paper-two-node");
}

TEST(CliSweep, DryRunStillRejectsInvalidPoints) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  SweepOptions options;
  options.dry_run = true;
  EXPECT_THROW((void)run_sweep(spec, {}, {parse_axis("gain=0.5,11")}, options), ConfigError);
  EXPECT_THROW((void)run_sweep(spec, {}, {parse_axis("bogus=1,2")}, options), ConfigError);
}

TEST(CliSweep, UnknownAxisKeyFailsFastNamingTheFamily) {
  // The fail-fast check runs before any grid point: a typoed env key on a
  // real (non-dry) sweep must throw immediately, name the family, and carry a
  // did-you-mean suggestion across the env.*/arrivals.* key groups.
  const ScenarioSpec& spec = find_scenario("correlated-churn");
  SweepOptions options;
  options.replications = 5000000;  // would take hours if a point ever ran
  try {
    (void)run_sweep(spec, {}, {parse_axis("env.storm.mul=1,5")}, options);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.kind(), ConfigError::Kind::kUnknownKey);
    const std::string what = e.what();
    EXPECT_NE(what.find("correlated-churn"), std::string::npos) << what;
    EXPECT_NE(what.find("env.storm.mult"), std::string::npos) << what;
  }
  // arrivals.* group, on the open-arrivals family.
  try {
    (void)run_sweep(find_scenario("open-arrivals"), {},
                    {parse_axis("arrivals.bacth=10,20")}, options);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("open-arrivals"), std::string::npos) << what;
    EXPECT_NE(what.find("arrivals.batch"), std::string::npos) << what;
  }
  // topology.* group, on the graph-rr family.
  try {
    (void)run_sweep(find_scenario("graph-rr"), {}, {parse_axis("topology.degre=2,4")},
                    options);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.kind(), ConfigError::Kind::kUnknownKey);
    const std::string what = e.what();
    EXPECT_NE(what.find("graph-rr"), std::string::npos) << what;
    EXPECT_NE(what.find("topology.degree"), std::string::npos) << what;
  }
}

TEST(CliSweep, GridIsFullyValidatedBeforeAnyPointRuns) {
  // A multi-token schedule passed as an axis gets comma-split into bogus
  // values ('0:down@10' + 'up@30'); the whole grid is built up front, so the
  // sweep dies with the precise schedule ConfigError before a single
  // replication runs — never with truncated semantics or a mid-sweep abort.
  const ScenarioSpec& spec = find_scenario("scheduled-churn");
  SweepOptions options;
  options.replications = 5000000;  // would take hours if a point ever ran
  try {
    (void)run_sweep(spec, {}, {parse_axis("schedule=0:down@10,up@30")}, options);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.kind(), ConfigError::Kind::kBadValue);
    EXPECT_EQ(e.key(), "schedule");
  }
}

/// `lbsim args...` driven in-process: its exit code and its stderr.
std::pair<int, std::string> lbsim(std::vector<std::string> args) {
  args.insert(args.begin(), "lbsim");
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out, err;
  const int code = run_lbsim(static_cast<int>(argv.size()), argv.data(), out, err);
  return {code, err.str()};
}

TEST(CliSweep, TestbedFamiliesRefuseWhatTheTestbedCannotEmulate) {
  // The refusal lives in testbed::from_scenario, the one mapping run and
  // sweep share, so a sweep over a testbed family refuses a key exactly as
  // `lbsim run` does, dry or not, before any point runs, even when only one
  // point sets it.
  const std::pair<std::string, std::string> cases[] = {
      {"policy=periodic", "policy=periodic,lbp2"},
      {"delay.shift=5", "delay.shift=0,5"},
  };
  for (const auto& [run_key, sweep_axis] : cases) {
    const auto [run_code, run_err] = lbsim({"run", "lossy-exchange", run_key, "--reps=2"});
    EXPECT_EQ(run_code, 2) << run_key;
    EXPECT_NE(run_err.find("the testbed engine does not emulate"), std::string::npos)
        << run_err;
    for (const char* mode : {"--reps=2", "--dry-run"}) {
      const auto [sweep_code, sweep_err] = lbsim({"sweep", "lossy-exchange", sweep_axis, mode});
      EXPECT_EQ(sweep_code, 2) << sweep_axis << " " << mode;
      EXPECT_EQ(sweep_err, run_err) << sweep_axis << " " << mode;
    }
  }
}

TEST(CliSweepAxis, ScheduleTimelinesAreListValuesNotRanges) {
  // Schedule strings carry their own colons; the lo:hi:step detector must not
  // eat them (non-numeric segments fall back to the list grammar).
  const SweepAxis axis = parse_axis("schedule=0:down@10-20,0:down@10-60");
  ASSERT_EQ(axis.values.size(), 2u);
  EXPECT_EQ(axis.values[0], "0:down@10-20");
  EXPECT_EQ(axis.values[1], "0:down@10-60");
  // Numeric ranges keep working.
  EXPECT_EQ(parse_axis("gain=0:1:0.5").values.size(), 3u);
}

TEST(CliSweep, RunsTheGridAndReportsMeans) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  SweepOptions options;
  options.replications = 8;
  options.threads = 1;
  options.seed = lbsim::test::kFixedSeed;
  const SweepResult result = run_sweep(spec, {}, {parse_axis("gain=0.2,0.4")}, options);
  ASSERT_EQ(result.table.rows(), 2u);
  for (std::size_t r = 0; r < result.table.rows(); ++r) {
    const double mean = std::stod(result.table.row(r).at(1));
    EXPECT_GT(mean, 0.0);
    EXPECT_LT(mean, 1000.0);
  }
  EXPECT_GT(result.metadata.wall_seconds, 0.0);
}

TEST(CliSweep, QuantileColumnsAreOrderedAndBracketTheMean) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  SweepOptions options;
  options.replications = 60;
  options.threads = 1;
  options.seed = lbsim::test::kFixedSeed;
  options.quantiles = true;
  const SweepResult result = run_sweep(spec, {}, {parse_axis("gain=0.2,0.4")}, options);
  const auto& header = result.table.header();
  // Columns: gain + 7 MC stats, then the quantile block.
  ASSERT_EQ(header.size(), 11u);
  EXPECT_EQ(header[8], "p50_s");
  EXPECT_EQ(header[9], "p90_s");
  EXPECT_EQ(header[10], "p99_s");
  for (std::size_t r = 0; r < result.table.rows(); ++r) {
    const double p50 = std::stod(result.table.row(r).at(8));
    const double p90 = std::stod(result.table.row(r).at(9));
    const double p99 = std::stod(result.table.row(r).at(10));
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
  }
}

TEST(CliSweep, EcdfColumnsAreTheExactQuantileFunction) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  SweepOptions options;
  options.replications = 40;
  options.threads = 1;
  options.seed = lbsim::test::kFixedSeed;
  options.ecdf_points = 4;
  const SweepResult result = run_sweep(spec, {}, {parse_axis("gain=0.3,0.5")}, options);
  const auto& header = result.table.header();
  ASSERT_EQ(header.size(), 13u);  // gain + 7 stats + 5 quantile-grid columns
  EXPECT_EQ(header[8], "q0_s");
  EXPECT_EQ(header[9], "q25_s");
  EXPECT_EQ(header[12], "q100_s");
  for (std::size_t r = 0; r < result.table.rows(); ++r) {
    // q0..q100 is the sorted sample's quantile function: non-decreasing, and
    // its extremes are the run's min/max (also available to cross-check the
    // ECDF semantics end-to-end).
    double last = 0.0;
    for (std::size_t c = 8; c <= 12; ++c) {
      const double v = std::stod(result.table.row(r).at(c));
      EXPECT_GE(v, last) << "row " << r << " col " << c;
      last = v;
    }
  }
}

TEST(CliSweep, CompareTheoryJoinsSolverAndMarksNoSolverPoints) {
  // policy=none stays inside the regeneration model; policy=lbp2 reacts to
  // failures, so its row must carry the "-" no-solver marker in all three
  // theory columns.
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  SweepOptions options;
  options.replications = 120;
  options.threads = 1;
  options.seed = lbsim::test::kFixedSeed;
  options.compare_theory = true;
  const SweepResult result =
      run_sweep(spec, {}, {parse_axis("policy=none,lbp2")}, options);
  const auto& header = result.table.header();
  ASSERT_EQ(header.size(), 11u);
  EXPECT_EQ(header[8], "theory_mean");
  EXPECT_EQ(header[9], "abs_err");
  EXPECT_EQ(header[10], "sigma_err");

  const auto& theory_row = result.table.row(0);
  // The no-transfer (100, 60) golden pin, joined onto the MC row.
  EXPECT_NEAR(std::stod(theory_row.at(8)), 141.2156, 1e-3);
  EXPECT_LT(std::fabs(std::stod(theory_row.at(10))), 4.0);  // |sigma_err| gate

  const auto& marker_row = result.table.row(1);
  EXPECT_EQ(marker_row.at(8), "-");
  EXPECT_EQ(marker_row.at(9), "-");
  EXPECT_EQ(marker_row.at(10), "-");
}

TEST(CliSweep, McAxesTargetTheEngineNotTheScenario) {
  const ScenarioSpec& spec = find_scenario("paper-two-node");
  SweepOptions options;
  options.threads = 1;
  options.seed = lbsim::test::kFixedSeed;
  const SweepResult result = run_sweep(spec, {}, {parse_axis("mc.reps=4,8")}, options);
  ASSERT_EQ(result.table.rows(), 2u);
  // The reps column (index 4: mean, ci95, stderr, reps) reflects the axis.
  EXPECT_EQ(result.table.row(0).at(4), "4");
  EXPECT_EQ(result.table.row(1).at(4), "8");
}

}  // namespace
}  // namespace lbsim::cli
