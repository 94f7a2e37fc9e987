/// \file
/// lbbench: the lbsim benchmark program. One invocation runs one workload.
///
///   lbbench --workload NAME --seed N --seconds S --trace 0|1
///           [--spans FILE] [--drop-directive]
///
/// `--trace 0` times the public engine entry points (mc::run_monte_carlo,
/// testbed::run_experiment) and reports the end-to-end metrics. `--trace 1`
/// replays the workload through the timing policy decorator and a
/// simulator it owns, replays single layers at the workload's measured
/// sizes, and reports the per-layer metrics. Both run every correctness
/// check; a replication that throws, breaks task conservation, or belongs to a
/// run whose run-level check fails counts as failed. The last stdout line is
/// one JSON object; the exit code is 1 when any check failed.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/registry.hpp"
#include "markov/params.hpp"
#include "markov/two_node_mean.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "sim/simulator.hpp"
#include "stochastic/stats.hpp"
#include "testbed/config.hpp"
#include "testbed/experiment.hpp"

namespace {

namespace cli = lbsim::cli;
namespace mc = lbsim::mc;
namespace obs = lbsim::obs;
namespace stoch = lbsim::stoch;
namespace testbed = lbsim::testbed;
using perfbench::Clock;
using Keys = std::vector<std::pair<std::string, std::string>>;

struct Workload {
  std::string name;
  std::string family;      ///< registry family
  Keys keys;               ///< registry overrides
  std::size_t batch;       ///< replications per thread in one timed batch
  std::size_t check_reps;  ///< replications of the checked and traced runs
  /// Mean is checked against the exact two-node solver (paper operating point).
  bool paper_theory = false;
  /// Node counts of the traced cost-vs-n sweep (the workload's own n is added).
  std::vector<std::size_t> sweep = {};
};

// Why each workload exists is recorded in README.md. Batch sizes keep one
// timed batch near 0.2-0.5 s at threads=1.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"paper_2node", "paper-two-node", {}, 4000, 2000, true},
      {"churn_n256", "many-node-churn", {{"nodes", "256"}}, 8, 40, false, {16, 32, 64, 128}},
      {"lossy_testbed", "lossy-exchange", {}, 2000, 1000},
      {"graph_rr32", "graph-rr", {}, 200, 200},
  };
  return list;
}

constexpr std::size_t kSweepReps = 40;
constexpr std::size_t kMinBatches = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kSetupBuilds = 101;
/// The host that throughputs and set-up times are scaled to: one that runs
/// the host_speed loop at 1e8 iterations per second (the 4-vCPU KVM guest
/// the bounds were set on runs it at 0.6-1.45e8).
constexpr double kNominalSpeed = 1e8;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A workload's runnable config: the abstract-MC scenario, or (testbed
/// families) the testbed config it converts to.
struct Runnable {
  mc::ScenarioConfig scenario;
  std::optional<testbed::TestbedConfig> bed;

  [[nodiscard]] const lbsim::markov::MultiNodeParams& params() const {
    return bed ? bed->params : scenario.params;
  }
  [[nodiscard]] std::size_t nodes() const { return params().nodes.size(); }
  /// Tasks every replication must complete (no open arrivals here).
  [[nodiscard]] std::uint64_t tasks() const {
    std::uint64_t sum = 0;
    for (const std::size_t m : bed ? bed->workloads : scenario.workloads) sum += m;
    return sum;
  }
  /// RNG streams one replication constructs (the engines' documented layout).
  [[nodiscard]] std::uint64_t streams_per_rep() const {
    const std::uint64_t n = nodes();
    if (bed) return 2 * n + 2 + (bed->environment.enabled() ? 1 : 0);
    return 2 * n + 1 + (scenario.environment.enabled() ? 1 : 0) +
           (scenario.arrivals.active() ? 1 : 0) + (scenario.policy->needs_rng() ? 1 : 0);
  }
};

/// The set-up step users pay: registry keys to a runnable config.
Runnable build(const Workload& w, const Keys& keys) {
  const cli::ScenarioSpec& spec = cli::find_scenario(w.family);
  cli::RawConfig raw;
  for (const auto& [key, value] : keys) raw.set(key, value);
  Runnable r;
  r.scenario = spec.build(spec.schema.resolve(raw));
  if (spec.testbed) r.bed = testbed::from_scenario(std::move(r.scenario));
  return r;
}

/// The statistics the checks compare between runs of the same replications.
struct Outcome {
  stoch::RunningStats completion;
  double mean_failures = 0.0;
  double mean_tasks_moved = 0.0;
  /// p50/p90/p99 (MC engine) or every sorted sample (testbed engine).
  std::vector<double> quantiles;
};

/// Untraced run through the public engine entry point.
Outcome run_engine(const Runnable& r, std::size_t reps, std::uint64_t seed, unsigned threads) {
  Outcome out;
  if (r.bed) {
    testbed::ExperimentSummary s = testbed::run_experiment(*r.bed, reps, seed, threads);
    out.completion = s.completion;
    out.mean_failures = s.mean_failures;
    out.mean_tasks_moved = s.mean_tasks_moved;
    out.quantiles = std::move(s.samples);
    return out;
  }
  mc::McConfig config;
  config.replications = reps;
  config.seed = seed;
  config.threads = threads;
  const mc::McResult result = mc::run_monte_carlo(r.scenario, config);
  out.completion = result.completion;
  out.mean_failures = result.mean_failures;
  out.mean_tasks_moved = result.mean_tasks_moved;
  out.quantiles = {result.p50, result.p90, result.p99};
  return out;
}

/// Gives each decision of the replication just run (hooks[first..]) the
/// tasks the engine shipped for it. Both engines record one kPolicyDecision
/// per hook call, then one kTransferSend per bundle they execute for it.
/// False when the record count and the decorator's span count disagree.
bool attribute_moves(const obs::TraceBuffer& events, std::vector<perfbench::HookSpan>& hooks,
                     std::size_t first) {
  std::size_t next = first;
  bool ok = true;
  events.for_each([&](const obs::Record& rec) {
    if (rec.kind_enum() == obs::Kind::kPolicyDecision) {
      ++next;
    } else if (rec.kind_enum() == obs::Kind::kTransferSend) {
      if (next == first || next > hooks.size()) {
        ok = false;
      } else {
        hooks[next - 1].moved += rec.count;
      }
    }
  });
  return ok && next == hooks.size();
}

/// One traced replay of replications [0, reps) at `seed`: the policy wrapped
/// in the timing decorator, the MC engine driven through a simulator
/// lbbench owns (the testbed builds its own; its DES counters come back
/// through the metrics registry).
struct Replay {
  Outcome outcome;
  perfbench::SpanLog log;
  obs::PhaseProfile profile;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t bundles = 0;
  std::uint64_t moved = 0;
  std::uint64_t state_lost = 0;
  std::size_t broken = 0;     ///< replications that did not complete every task
  std::size_t unmatched = 0;  ///< replications whose decisions the decorator missed
  double seconds = 0.0;
};

/// `engine_trace` also attaches the engine's own trace records, which say
/// how many tasks each decision moved.
Replay replay(const Runnable& r, std::size_t reps, std::uint64_t seed, bool engine_trace,
              bool drop_directive) {
  Replay out;
  out.log.reps.reserve(reps);
  mc::ScenarioConfig scenario;
  std::optional<testbed::TestbedConfig> bed;
  if (r.bed) {
    bed = r.bed->clone();
    bed->policy = std::make_unique<perfbench::TimingPolicy>(std::move(bed->policy), out.log,
                                                            drop_directive);
  } else {
    scenario = r.scenario.clone();
    scenario.policy = std::make_unique<perfbench::TimingPolicy>(std::move(scenario.policy),
                                                                out.log, drop_directive);
  }
  lbsim::des::Simulator sim;
  obs::Registry bed_metrics;
  mc::RunControls controls;
  controls.profile = &out.profile;
  mc::RunTrace trace;
  trace.record_queues = false;
  mc::RunTrace* const trace_ptr = engine_trace ? &trace : nullptr;
  std::vector<double> samples;
  samples.reserve(reps);
  double failures = 0.0;
  double moved = 0.0;

  const Clock::time_point begin = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    trace.events.clear();
    out.log.current_rep = static_cast<std::uint32_t>(rep);
    const std::size_t first_hook = out.log.hooks.size();
    const std::uint64_t own_before = out.log.own_allocs;
    const std::uint64_t allocs_before = perfbench::thread_allocations();
    const Clock::time_point t0 = Clock::now();
    const mc::RunResult run =
        bed ? testbed::run_realization(*bed, seed, rep, trace_ptr, &out.profile, &bed_metrics)
            : mc::run_scenario(scenario, seed, rep, trace_ptr, sim, mc::SteadyProbe{},
                               controls);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t allocs = perfbench::thread_allocations() - allocs_before -
                                 (out.log.own_allocs - own_before);
    out.log.reps.push_back(perfbench::RepSpan{static_cast<std::uint32_t>(rep),
                                              out.log.ns(t0), out.log.ns(t1), allocs});
    if (engine_trace && !attribute_moves(trace.events, out.log.hooks, first_hook)) {
      ++out.unmatched;
    }
    // The same fold, in the same order, as the engines' threads=1 path.
    out.outcome.completion.add(run.completion_time);
    failures += static_cast<double>(run.failures);
    moved += static_cast<double>(run.tasks_moved);
    samples.push_back(run.completion_time);
    out.bundles += run.bundles_sent;
    out.moved += run.tasks_moved;
    out.state_lost += run.state_packets_lost;
    if (run.tasks_completed != r.tasks()) ++out.broken;
  }
  out.seconds = seconds_since(begin);

  out.outcome.mean_failures = failures / static_cast<double>(reps);
  out.outcome.mean_tasks_moved = moved / static_cast<double>(reps);
  std::sort(samples.begin(), samples.end());
  if (bed) {
    out.outcome.quantiles = std::move(samples);
    out.events = bed_metrics.counter("des.events.popped").value();
    out.cancelled = bed_metrics.counter("des.events.cancelled").value();
    out.max_depth =
        static_cast<std::uint64_t>(bed_metrics.gauge("des.queue.max_depth").value());
  } else {
    out.outcome.quantiles = {stoch::quantile_sorted(samples, 0.5),
                             stoch::quantile_sorted(samples, 0.9),
                             stoch::quantile_sorted(samples, 0.99)};
    out.events = sim.queue_stats().popped;
    out.cancelled = sim.queue_stats().cancelled;
    out.max_depth = sim.queue_stats().max_depth;
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Distance in units in the last place (huge across a sign change).
std::uint64_t ulps(double a, double b) {
  if (a == b) return 0;
  if (std::signbit(a) != std::signbit(b)) return UINT64_MAX;
  const std::uint64_t x = std::bit_cast<std::uint64_t>(a);
  const std::uint64_t y = std::bit_cast<std::uint64_t>(b);
  return x > y ? x - y : y - x;
}

bool same_quantiles(const Outcome& a, const Outcome& b) {
  return std::equal(a.quantiles.begin(), a.quantiles.end(), b.quantiles.begin(),
                    b.quantiles.end(), same_bits);
}

/// The traced run computed exactly what the untraced one did.
bool bit_identical(const Outcome& a, const Outcome& b) {
  return a.completion.count() == b.completion.count() &&
         same_bits(a.completion.mean(), b.completion.mean()) &&
         same_bits(a.completion.variance(), b.completion.variance()) &&
         same_bits(a.mean_failures, b.mean_failures) &&
         same_bits(a.mean_tasks_moved, b.mean_tasks_moved) && same_quantiles(a, b);
}

/// Runs at different thread counts fold the same per-replication values in a
/// different order. The quantiles, and the integer-valued sums behind the mean
/// failures and tasks moved, do not depend on that order and must match
/// exactly. The completion mean does: each Welford update and partial merge
/// rounds, so the two means may drift apart by a few ULPs per replication
/// (5 ULPs at 60 replications, 15 at 4000 on paper-two-node). It must agree
/// within 4 ULPs per replication, which is still about 1e-12 of the mean,
/// while a replication missed or run twice moves it by about 1e-4.
bool thread_agreement(const Outcome& a, const Outcome& b) {
  return same_quantiles(a, b) && same_bits(a.mean_failures, b.mean_failures) &&
         same_bits(a.mean_tasks_moved, b.mean_tasks_moved) &&
         a.completion.count() == b.completion.count() &&
         ulps(a.completion.mean(), b.completion.mean()) <= 4 * a.completion.count();
}

/// Replications attempted and failed in this invocation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;

  /// A run-level check: when it fails, the run's `reps` replications fail.
  void check(bool ok, std::size_t reps, const std::string& what) {
    ++checks;
    if (ok) return;
    std::printf("check FAILED: %s\n", what.c_str());
    ++failed_checks;
    failed += reps;
  }
  /// Runs `fn`, a run of `reps` replications; a throw fails all of them.
  template <typename Fn>
  bool guarded(std::size_t reps, const char* what, Fn&& fn) {
    attempted += reps;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      check(false, reps, std::string(what) + " threw: " + e.what());
      return false;
    }
  }
};

/// Checks shared by both modes: the traced replay against the untraced
/// threads=1 run of the same replications, and conservation.
void check_replay(Tally& tally, const Replay& rp, const Outcome& untraced, std::size_t reps,
                  const std::string& label) {
  tally.check(bit_identical(untraced, rp.outcome), reps, label + " bit-identical to untraced");
  tally.check(rp.unmatched == 0, rp.unmatched, label + " saw every decision");
  tally.check(rp.broken == 0, rp.broken, label + " conserves tasks");
}

/// The exact solver's mean at the paper's operating point, solved outside
/// every timed region (0 when the workload has no such check).
double solve_theory(const Workload& w) {
  if (!w.paper_theory) return 0.0;
  lbsim::markov::TwoNodeMeanSolver solver(lbsim::markov::ipdps2006_params());
  return solver.lbp1_mean(100, 60, 0, 0.35);
}

void check_theory(Tally& tally, const Workload& w, const Outcome& t1, double theory) {
  if (!w.paper_theory) return;
  const double z = std::abs(t1.completion.mean() - theory) / t1.completion.std_error();
  std::printf("theory mean %.6f s, measured %.6f s, z = %.3f\n", theory, t1.completion.mean(),
              z);
  tally.check(z <= 4.0, t1.completion.count(), "mean within 4 SE of the solver");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  bool drop_directive = false;
};

std::uint64_t batch_seed(std::uint64_t seed, std::uint64_t k) {
  return seed + k * 0x9e3779b97f4a7c15ULL;
}

unsigned mt_threads() { return std::clamp(std::thread::hardware_concurrency(), 1u, 4u); }

/// Peak resident memory of this process image. VmHWM, because getrusage's
/// ru_maxrss also counts the pre-exec image of the parent that spawned us.
double peak_rss_mib() {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> status(std::fopen("/proc/self/status", "r"),
                                                         &std::fclose);
  char line[256];
  while (status && std::fgets(line, sizeof line, status.get()) != nullptr) {
    unsigned long long kib = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) return static_cast<double>(kib) / 1024;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024;  // KiB on Linux
}

std::vector<Metric> run_untraced(const Options& opt, const Runnable& r, Tally& tally) {
  const Workload& w = *opt.workload;
  const unsigned mt = mt_threads();
  const std::size_t reps = w.check_reps;
  const double theory = solve_theory(w);

  // The checked runs double as warm-up for both thread counts.
  Outcome t1, multi;
  const bool t1_ok =
      tally.guarded(reps, "threads=1 run", [&] { t1 = run_engine(r, reps, opt.seed, 1); });
  const bool mt_ok =
      tally.guarded(reps, "threads=mt run", [&] { multi = run_engine(r, reps, opt.seed, mt); });
  std::optional<Replay> traced;
  tally.guarded(reps, "traced replay",
                [&] { traced = replay(r, reps, opt.seed, true, opt.drop_directive); });

  // Timed batches: threads=1 and threads=mt alternate on the same seeds,
  // after warm-up batches (the first threads=mt batches of a process run
  // slow while the worker threads' allocator arenas fill). Before each
  // threads=1 batch, a burst of fresh config builds times set-up, so set-up
  // is sampled across the whole run like throughput. The host's speed is
  // measured between every two of these steps, and the single-threaded steps
  // are scaled to the nominal host by the mean of the speeds on either side.
  // The threads=mt batches are not: with every vCPU busy the host runs at a
  // steadier speed than one thread sees, and scaling them by it added noise.
  std::vector<double> raw_setup, setup, raw1, rate1, rate_mt;
  double speed = perfbench::host_speed();
  const auto host = [&speed] {  // speed factor over the step just run
    const double before = speed;
    speed = perfbench::host_speed();
    return 0.5 * (before + speed) / kNominalSpeed;
  };
  const auto batch_pair = [&](std::uint64_t k, bool record) {
    const std::uint64_t s = batch_seed(opt.seed, k);
    std::vector<double> burst;
    for (std::size_t i = 0; record && i < kSetupBuilds; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Runnable fresh = build(w, w.keys);
      burst.push_back(seconds_since(t0));
    }
    const double host_setup = record ? host() : 0.0;
    double batch_s = 0.0;
    tally.guarded(w.batch, "timed threads=1 batch", [&] {
      const Clock::time_point t0 = Clock::now();
      (void)run_engine(r, w.batch, s, 1);
      batch_s = seconds_since(t0);
    });
    const double host1 = host();
    double mt_batch_s = 0.0;
    tally.guarded(w.batch * mt, "timed threads=mt batch", [&] {
      const Clock::time_point t0 = Clock::now();
      (void)run_engine(r, w.batch * mt, s, mt);
      mt_batch_s = seconds_since(t0);
    });
    speed = perfbench::host_speed();  // the next set-up burst's starting speed
    if (!record || batch_s <= 0.0 || mt_batch_s <= 0.0) return;
    raw_setup.push_back(perfbench::median(std::move(burst)));
    setup.push_back(raw_setup.back() * host_setup);
    raw1.push_back(static_cast<double>(w.batch) / batch_s);
    rate1.push_back(raw1.back() / host1);
    rate_mt.push_back(static_cast<double>(w.batch * mt) / mt_batch_s);
  };
  std::uint64_t k = 1;
  const Clock::time_point warm_begin = Clock::now();
  do {
    batch_pair(k++, false);
  } while (seconds_since(warm_begin) < kWarmupSeconds);
  const Clock::time_point loop_begin = Clock::now();
  for (std::size_t pairs = 0; pairs < kMinBatches || seconds_since(loop_begin) < opt.seconds;
       ++pairs) {
    batch_pair(k++, true);
  }

  if (t1_ok && mt_ok) {
    tally.check(thread_agreement(t1, multi), reps, "threads=1 and threads=mt agree");
  }
  if (t1_ok && traced) check_replay(tally, *traced, t1, reps, "traced replay");
  if (t1_ok) check_theory(tally, w, t1, theory);
  std::printf("batches: %zu at threads=1, %zu at threads=%u\n", rate1.size(), rate_mt.size(),
              mt);
  std::printf("unscaled medians: reps_per_s %.6g, setup_s %.6g\n", perfbench::median(raw1),
              perfbench::median(raw_setup));
  return {
      {"reps_per_s", perfbench::median(rate1), "1/s"},
      {"reps_per_s_mt", perfbench::median(rate_mt), "1/s"},
      {"setup_s", perfbench::median(setup), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

std::vector<double> sorted_rep_ms(const perfbench::SpanLog& log) {
  std::vector<double> ms;
  for (const perfbench::RepSpan& s : log.reps) {
    ms.push_back(static_cast<double>(s.end_ns - s.begin_ns) / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

/// Highest percentile with at least ten samples beyond it (type-7).
double tail(const std::vector<double>& sorted) {
  if (sorted.size() <= 10) return sorted.empty() ? 0.0 : sorted.back();
  return stoch::quantile_sorted(sorted, 1.0 - 10.0 / static_cast<double>(sorted.size()));
}

double median_sorted(const std::vector<double>& sorted) {
  return sorted.empty() ? 0.0 : stoch::quantile_sorted(sorted, 0.5);
}

double mean_hook_us(const perfbench::SpanLog& log) {
  double total_ns = 0.0;
  for (const perfbench::HookSpan& h : log.hooks) {
    total_ns += static_cast<double>(h.end_ns - h.begin_ns);
  }
  return ratio(total_ns / 1e3, static_cast<double>(log.hooks.size()));
}

/// Least-squares slope of log y against log x.
double log_log_slope(const std::vector<std::pair<double, double>>& points) {
  double sx = 0.0, sy = 0.0;
  for (const auto& [x, y] : points) {
    sx += std::log(x);
    sy += std::log(y);
  }
  const double n = static_cast<double>(points.size());
  double sxy = 0.0, sxx = 0.0;
  for (const auto& [x, y] : points) {
    const double dx = std::log(x) - sx / n;
    sxy += dx * (std::log(y) - sy / n);
    sxx += dx * dx;
  }
  return ratio(sxy, sxx);
}

std::vector<Metric> run_traced(const Options& opt, const Runnable& r, Tally& tally) {
  const Workload& w = *opt.workload;
  const std::size_t reps = w.check_reps;
  const double theory = solve_theory(w);

  // Counts come from a replay with the engine's trace records attached.
  std::optional<Replay> counted;
  tally.guarded(reps, "counted traced replay",
                [&] { counted = replay(r, reps, opt.seed, true, opt.drop_directive); });
  Outcome multi;
  const bool mt_ok = tally.guarded(
      reps, "threads=mt run", [&] { multi = run_engine(r, reps, opt.seed, mt_threads()); });

  // Untraced (U) and traced (T) runs of the same replications, interleaved
  // U T U T ... U until the run's seconds are spent. Timings come from the
  // first T; every T is checked against the U beside it.
  Outcome t1;
  std::vector<double> untraced_s, overhead;
  std::optional<Replay> timed;
  const auto untraced = [&] {
    return tally.guarded(reps, "threads=1 run", [&] {
      const Clock::time_point t0 = Clock::now();
      t1 = run_engine(r, reps, opt.seed, 1);
      untraced_s.push_back(seconds_since(t0));
    });
  };
  bool t1_ok = untraced();
  const Clock::time_point loop_begin = Clock::now();
  while (t1_ok && (overhead.empty() || seconds_since(loop_begin) < opt.seconds)) {
    std::optional<Replay> rp;
    tally.guarded(reps, "timed traced replay",
                  [&] { rp = replay(r, reps, opt.seed, false, opt.drop_directive); });
    t1_ok = untraced();
    if (!rp || !t1_ok) break;
    check_replay(tally, *rp, t1, reps, "timed traced replay");
    const double u = 0.5 * (untraced_s[untraced_s.size() - 2] + untraced_s.back());
    overhead.push_back(rp->seconds / u - 1.0);
    if (!timed) timed = std::move(rp);
  }
  if (t1_ok && mt_ok) {
    tally.check(thread_agreement(t1, multi), reps, "threads=1 and threads=mt agree");
  }
  if (t1_ok && counted) check_replay(tally, *counted, t1, reps, "counted traced replay");
  if (t1_ok) check_theory(tally, w, t1, theory);

  // A failed run reports zeros (and fails the run through the tally).
  const Replay none;
  const Replay& tr = timed ? *timed : none;      // timings and allocations
  const Replay& cr = counted ? *counted : none;  // decisions, tasks moved, counts
  const std::vector<double> ms = sorted_rep_ms(tr.log);
  double rep_ns = 0.0, hook_ns = 0.0, hook_allocs = 0.0, rep_allocs = 0.0;
  for (const perfbench::RepSpan& s : tr.log.reps) {
    rep_ns += static_cast<double>(s.end_ns - s.begin_ns);
    rep_allocs += static_cast<double>(s.allocs);
  }
  stoch::RunningStats start_us, failure_us;
  for (const perfbench::HookSpan& h : tr.log.hooks) {
    const double ns = static_cast<double>(h.end_ns - h.begin_ns);
    hook_ns += ns;
    hook_allocs += static_cast<double>(h.allocs);
    if (h.hook == perfbench::Hook::kStart) start_us.add(ns / 1e3);
    if (h.hook == perfbench::Hook::kFailure) failure_us.add(ns / 1e3);
  }
  const double decisions = static_cast<double>(tr.log.hooks.size());
  const double useful = static_cast<double>(
      std::count_if(cr.log.hooks.begin(), cr.log.hooks.end(),
                    [](const perfbench::HookSpan& h) { return h.moved > 0; }));
  const double setup_share = ratio(tr.profile.setup_s, tr.profile.setup_s + tr.profile.loop_s);
  const double n_reps = static_cast<double>(reps);

  if (timed && !opt.spans.empty()) {
    perfbench::SpanLog spans = tr.log;
    if (spans.hooks.size() == cr.log.hooks.size()) {
      for (std::size_t i = 0; i < spans.hooks.size(); ++i) {
        spans.hooks[i].moved = cr.log.hooks[i].moved;
      }
    }
    spans.write_csv(opt.spans);
  }

  // Cost-vs-n sweep: traced replays at the sweep sizes plus this workload's n.
  std::vector<std::pair<double, double>> rep_vs_n, policy_vs_n;
  for (const std::size_t n : w.sweep) {
    Keys keys = w.keys;
    for (auto& [key, value] : keys) {
      if (key == "nodes") value = std::to_string(n);
    }
    tally.guarded(kSweepReps, "cost-vs-n sweep", [&] {
      const Replay rp = replay(build(w, keys), kSweepReps, opt.seed, false, false);
      tally.check(rp.broken == 0, rp.broken,
                  "sweep n=" + std::to_string(n) + " conserves tasks");
      rep_vs_n.emplace_back(n, median_sorted(sorted_rep_ms(rp.log)));
      policy_vs_n.emplace_back(n, mean_hook_us(rp.log));
    });
  }
  const bool sweep = !w.sweep.empty() && timed && rep_vs_n.size() == w.sweep.size();
  rep_vs_n.emplace_back(r.nodes(), median_sorted(ms));
  policy_vs_n.emplace_back(r.nodes(), mean_hook_us(tr.log));

  const double streams = static_cast<double>(r.streams_per_rep());
  const double stream_us =
      perfbench::replay_streams_us(opt.seed, 0, r.streams_per_rep() * reps);
  const double untraced_rep_us = perfbench::median(untraced_s) * 1e6 / n_reps;
  const bool on_mc = !r.bed;
  const auto per_rep = [&](std::uint64_t count) { return static_cast<double>(count) / n_reps; };

  return {
      {"core.busy_share", ratio(hook_ns, rep_ns), "ratio"},
      {"core.on_start_us", start_us.mean(), "us"},
      {"core.on_failure_us", failure_us.mean(), "us"},
      {"core.decisions_per_rep", decisions / n_reps, "count"},
      {"core.useful_ratio", ratio(useful, static_cast<double>(cr.log.hooks.size())), "ratio"},
      {"core.allocs_per_decision", ratio(hook_allocs, decisions), "count"},
      {"core.n_exponent", sweep ? log_log_slope(policy_vs_n) : 0.0, "slope"},
      {"stochastic.streams_per_rep", streams, "count"},
      {"stochastic.stream_us", stream_us, "us"},
      {"stochastic.setup_share", ratio(streams * stream_us, untraced_rep_us), "ratio"},
      {"sim.events_per_rep", per_rep(cr.events), "count"},
      {"sim.cancelled_per_rep", per_rep(cr.cancelled), "count"},
      {"sim.max_depth", static_cast<double>(cr.max_depth), "count"},
      {"sim.hold_ns_per_event", perfbench::replay_hold_ns(cr.max_depth, 200000), "ns"},
      {"sim.loop_ns_per_event", ratio(tr.profile.loop_s * 1e9, static_cast<double>(cr.events)),
       "ns"},
      {"mc.rep_ms_p50", on_mc ? median_sorted(ms) : 0.0, "ms"},
      {"mc.rep_ms_tail", on_mc ? tail(ms) : 0.0, "ms"},
      {"mc.rep_samples", on_mc ? static_cast<double>(ms.size()) : 0.0, "count"},
      {"mc.setup_share", on_mc ? setup_share : 0.0, "ratio"},
      {"mc.allocs_per_rep", on_mc ? rep_allocs / n_reps : 0.0, "count"},
      {"mc.n_exponent", sweep ? log_log_slope(rep_vs_n) : 0.0, "slope"},
      {"net.bundles_per_rep", per_rep(cr.bundles), "count"},
      {"net.tasks_moved_per_rep", per_rep(cr.moved), "count"},
      {"net.state_lost_per_rep", per_rep(cr.state_lost), "count"},
      {"net.broadcast_ns", r.bed ? perfbench::replay_broadcast_ns(*r.bed, 20000) : 0.0, "ns"},
      {"net.topology_build_us",
       on_mc && !r.scenario.topology.complete()
           ? perfbench::replay_topology_us(r.scenario.topology, r.nodes(), 200)
           : 0.0,
       "us"},
      {"testbed.rep_ms_p50", on_mc ? 0.0 : median_sorted(ms), "ms"},
      {"testbed.rep_ms_tail", on_mc ? 0.0 : tail(ms), "ms"},
      {"testbed.rep_samples", on_mc ? 0.0 : static_cast<double>(ms.size()), "count"},
      {"testbed.setup_share", on_mc ? 0.0 : setup_share, "ratio"},
      {"trace_overhead", perfbench::median(overhead), "ratio"},
  };
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "lbbench: %s\nusage: lbbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--drop-directive]\nworkloads:",
               message.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--drop-directive") {
      opt.drop_directive = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : workloads()) {
        if (w.name == value) opt.workload = &w;
      }
      if (opt.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--spans") {
      opt.spans = value;
    } else {
      usage("unknown argument " + arg);
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + arg);
  }
  if (opt.workload == nullptr) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Runnable r = build(*opt.workload, opt.workload->keys);
  std::printf("workload %s (%s, %zu nodes, %" PRIu64 " tasks per replication, seed %" PRIu64
              ", %s)\n",
              opt.workload->name.c_str(), opt.workload->family.c_str(), r.nodes(), r.tasks(),
              opt.seed, opt.trace ? "traced" : "untraced");
  Tally tally;
  std::vector<Metric> metrics =
      opt.trace ? run_traced(opt, r, tally) : run_untraced(opt, r, tally);
  const double fail_frac = tally.attempted > 0 ? ratio(static_cast<double>(tally.failed),
                                                       static_cast<double>(tally.attempted))
                                               : 1.0;
  if (opt.trace) metrics.push_back({"fail_frac", fail_frac, "ratio"});
  std::printf("checks: %" PRIu64 " run, %" PRIu64 " failed\n", tally.checks,
              tally.failed_checks);
  std::printf("fail_frac %.6g (%" PRIu64 " of %" PRIu64 " replications)\n", fail_frac,
              tally.failed, tally.attempted);
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return tally.failed == 0 ? 0 : 1;
}
