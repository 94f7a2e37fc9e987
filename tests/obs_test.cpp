// Tests for the observability layer: trace record layout and arena mechanics,
// registry merge discipline, exporter round-trips, engine-level record pins,
// and — the layer's one non-negotiable invariant — bit-identity of every
// statistic between observed and unobserved runs (recording consumes zero RNG
// draws).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/registry.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "markov/params.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "mc/steady.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"

namespace lbsim {
namespace {

mc::ScenarioConfig family_scenario(const std::string& family,
                                   std::vector<std::pair<std::string, std::string>> keys) {
  const cli::ScenarioSpec& spec = cli::find_scenario(family);
  cli::RawConfig raw;
  for (auto& [key, value] : keys) raw.set(key, value);
  return spec.build(spec.schema.resolve(raw));
}

/// `realizations` of `config` on the testbed (mc::run_monte_carlo with
/// mc::Engine::kTestbed), observed through `sinks`.
mc::McResult run_testbed(const mc::ScenarioConfig& config, std::size_t realizations,
                         unsigned threads, const mc::ObsSinks& sinks = {}) {
  mc::McConfig mc;
  mc.engine = mc::Engine::kTestbed;
  mc.replications = realizations;
  mc.seed = test::kFixedSeed;
  mc.threads = threads;
  mc.obs = sinks;
  return mc::run_monte_carlo(config, mc);
}

// ---------- record layout ----------

TEST(ObsRecord, FixedThirtyTwoByteLayout) {
  EXPECT_EQ(sizeof(obs::Record), 32u);
  EXPECT_TRUE(std::is_trivially_copyable_v<obs::Record>);
  obs::Record r;
  EXPECT_EQ(r.node, -1);
  EXPECT_EQ(r.peer, -1);
  EXPECT_EQ(r.count, 0u);
}

TEST(ObsRecord, PayloadDoubleRoundTripsExactly) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, -1e308, 5e-324, 77.65501}) {
    obs::Record r;
    r.payload = obs::Record::pack_f64(v);
    EXPECT_EQ(obs::Record::pack_f64(r.payload_f64()), r.payload);
    EXPECT_EQ(r.payload_f64(), v);
  }
}

TEST(ObsRecord, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kKindCount; ++i) {
    const auto kind = static_cast<obs::Kind>(i);
    obs::Kind parsed{};
    ASSERT_TRUE(obs::parse_kind(obs::kind_name(kind), parsed)) << obs::kind_name(kind);
    EXPECT_EQ(parsed, kind);
  }
  obs::Kind unused{};
  EXPECT_FALSE(obs::parse_kind("not-a-kind", unused));
  EXPECT_EQ(obs::kind_name(static_cast<obs::Kind>(obs::kKindCount)), "unknown");
}

// ---------- trace buffer arena ----------

// Spans several chunks: first chunk (256) plus multiple full 2048-record ones.
constexpr std::size_t kManyRecords =
    obs::TraceBuffer::kFirstChunkRecords + 2 * obs::TraceBuffer::kChunkRecords + 99;

obs::TraceBuffer numbered_trace(std::size_t n, std::size_t start = 0) {
  obs::TraceBuffer trace;
  for (std::size_t i = start; i < start + n; ++i) {
    trace.emit(static_cast<double>(i), obs::Kind::kTaskArrive,
               static_cast<std::int32_t>(i % 7), -1, 1, i);
  }
  return trace;
}

TEST(ObsTraceBuffer, ChunkGrowthPreservesAppendOrder) {
  const obs::TraceBuffer trace = numbered_trace(kManyRecords);
  EXPECT_EQ(trace.size(), kManyRecords);
  EXPECT_EQ(trace.count(obs::Kind::kTaskArrive), kManyRecords);
  EXPECT_EQ(trace.count(obs::Kind::kFail), 0u);
  std::size_t expected = 0;
  trace.for_each([&](const obs::Record& r) {
    EXPECT_EQ(r.payload, expected);
    EXPECT_EQ(r.node, static_cast<std::int32_t>(expected % 7));
    ++expected;
  });
  EXPECT_EQ(expected, kManyRecords);
}

TEST(ObsTraceBuffer, AppendAllConcatenatesAcrossChunkBoundaries) {
  obs::TraceBuffer sink = numbered_trace(300);
  const obs::TraceBuffer tail = numbered_trace(kManyRecords, 300);
  sink.append_all(tail);
  EXPECT_EQ(sink.size(), 300 + kManyRecords);
  EXPECT_EQ(tail.size(), kManyRecords);  // source untouched
  const std::vector<obs::Record> flat = sink.to_vector();
  ASSERT_EQ(flat.size(), 300 + kManyRecords);
  for (std::size_t i = 0; i < flat.size(); ++i) EXPECT_EQ(flat[i].payload, i);
}

TEST(ObsTraceBuffer, AbsorbMatchesAppendAllAndEmptiesSource) {
  obs::TraceBuffer by_copy = numbered_trace(500);
  obs::TraceBuffer by_splice = numbered_trace(500);
  obs::TraceBuffer donor_a = numbered_trace(kManyRecords, 500);
  by_copy.append_all(donor_a);
  by_splice.absorb(std::move(donor_a));
  EXPECT_TRUE(donor_a.empty());
  EXPECT_EQ(by_splice.size(), by_copy.size());
  EXPECT_EQ(by_splice.to_vector(), by_copy.to_vector());
  // The spliced buffer keeps appending correctly after adopting foreign chunks.
  by_splice.emit(1.0, obs::Kind::kFail, 3);
  EXPECT_EQ(by_splice.count(obs::Kind::kFail), 1u);
  // Absorbing an empty buffer is a no-op.
  obs::TraceBuffer empty;
  const std::size_t before = by_splice.size();
  by_splice.absorb(std::move(empty));
  EXPECT_EQ(by_splice.size(), before);
}

TEST(ObsTraceBuffer, ClearDropsRecordsAndStaysUsable) {
  obs::TraceBuffer trace = numbered_trace(kManyRecords);
  trace.clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.size(), 0u);
  trace.emit(2.5, obs::Kind::kRecover, 1);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.to_vector()[0].kind_enum(), obs::Kind::kRecover);
}

// ---------- queue replay (Fig. 4) ----------

/// One hand-built replication on two nodes: node 0 ships 35 of its 100 tasks
/// to node 1 at t = 0, node 1 completes one at t = 1, the bundle lands at
/// t = 2.5, and node 0 completes one at t = 4 once it has recovered.
obs::TraceBuffer hand_built_replication() {
  obs::TraceBuffer trace;
  trace.emit(0.0, obs::Kind::kRepBegin);
  trace.emit(0.0, obs::Kind::kTaskArrive, 0, -1, 100);
  trace.emit(0.0, obs::Kind::kTaskArrive, 1, -1, 60);
  trace.emit(0.0, obs::Kind::kPolicyDecision, -1, -1, 1);
  trace.emit(0.0, obs::Kind::kTransferSend, 0, 1, 35);
  trace.emit(0.0, obs::Kind::kServiceStart, 0, -1, 1);
  trace.emit(1.0, obs::Kind::kTaskComplete, 1, -1, 1);
  trace.emit(2.0, obs::Kind::kFail, 0);
  trace.emit(2.0, obs::Kind::kEnvTransition, 3, 4);  // node = from-state, not a node
  trace.emit(2.5, obs::Kind::kTransferDeliver, 0, 1, 35);
  trace.emit(2.5, obs::Kind::kTaskArrive, 1, -1, 35);
  trace.emit(3.0, obs::Kind::kInject, 0, -1, 9);  // its task_arrive record would count
  trace.emit(3.0, obs::Kind::kChannelState, 5, 0, 1);
  trace.emit(4.0, obs::Kind::kRecover, 0);
  trace.emit(4.0, obs::Kind::kTaskComplete, 0, -1, 1);
  return trace;
}

TEST(ObsQueueReplay, ReplaysArrivalsSendsAndCompletionsOnly) {
  const obs::TraceBuffer trace = hand_built_replication();
  // -1 precedes every record; 0, 1, 2.5 and 4 fall on records (a sample reads
  // the queues after every record at its time); 0.5 and 3.9 fall between.
  const std::vector<std::vector<double>> queues =
      obs::queue_lengths_at(trace, 2, {-1.0, 0.0, 0.5, 1.0, 2.5, 3.9, 4.0, 9.0});
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0], (std::vector<double>{0, 65, 65, 65, 65, 65, 64, 64}));
  EXPECT_EQ(queues[1], (std::vector<double>{0, 60, 60, 59, 94, 94, 94, 94}));
}

TEST(ObsQueueReplay, EqualSampleTimesReadTheSameQueues) {
  const std::vector<std::vector<double>> queues =
      obs::queue_lengths_at(hand_built_replication(), 2, {2.5, 2.5, 2.5});
  EXPECT_EQ(queues[0], std::vector<double>(3, 65.0));
  EXPECT_EQ(queues[1], std::vector<double>(3, 94.0));
  // No sample at all: one empty row per node.
  EXPECT_EQ(obs::queue_lengths_at(hand_built_replication(), 3, {}),
            std::vector<std::vector<double>>(3));
}

TEST(ObsQueueReplay, StepFunctionLookup) {
  // One node: 10 tasks arrive at t = 0, 2 complete at t = 2, the other 8 at t = 5.
  obs::TraceBuffer trace;
  trace.emit(0.0, obs::Kind::kTaskArrive, 0, -1, 10);
  trace.emit(2.0, obs::Kind::kTaskComplete, 0, -1, 2);
  trace.emit(5.0, obs::Kind::kTaskComplete, 0, -1, 8);
  EXPECT_EQ(obs::queue_lengths_at(trace, 1, {0.0, 1.99, 2.0, 100.0})[0],
            (std::vector<double>{10, 10, 8, 0}));
}

TEST(ObsQueueReplay, HoldsTheLastValueBetweenRecords) {
  // 4 tasks at t = 0 and 3 more at t = 10, sampled at five points over [0, 20].
  obs::TraceBuffer trace;
  trace.emit(0.0, obs::Kind::kTaskArrive, 0, -1, 4);
  trace.emit(10.0, obs::Kind::kTaskArrive, 0, -1, 3);
  EXPECT_EQ(obs::queue_lengths_at(trace, 1, {0.0, 5.0, 10.0, 15.0, 20.0})[0],
            (std::vector<double>{4, 4, 7, 7, 7}));
}

TEST(ObsQueueReplay, ASampleAtSeveralRecordsReadsTheQueueAfterAllOfThem) {
  // 5 tasks arrive and 3 complete, all at t = 1.
  obs::TraceBuffer trace;
  trace.emit(1.0, obs::Kind::kTaskArrive, 0, -1, 5);
  trace.emit(1.0, obs::Kind::kTaskComplete, 0, -1, 3);
  EXPECT_EQ(obs::queue_lengths_at(trace, 1, {0.5, 1.0})[0], (std::vector<double>{0, 2}));
}

TEST(ObsQueueReplay, RefusesARecordEarlierThanItsPredecessor) {
  obs::TraceBuffer trace;
  trace.emit(1.0, obs::Kind::kTaskArrive, 0, -1, 1);
  trace.emit(0.5, obs::Kind::kTaskArrive, 0, -1, 2);
  EXPECT_THROW((void)obs::queue_lengths_at(trace, 1, {0.5}), std::invalid_argument);
  // Two replications folded into one buffer restart the clock at t = 0.
  obs::TraceBuffer merged = hand_built_replication();
  merged.append_all(hand_built_replication());
  EXPECT_THROW((void)obs::queue_lengths_at(merged, 2, {0.0}), std::invalid_argument);
}

TEST(ObsQueueReplay, RefusesUnsortedSampleTimes) {
  const obs::TraceBuffer trace = hand_built_replication();
  EXPECT_THROW((void)obs::queue_lengths_at(trace, 2, {1.0, 0.5}), std::invalid_argument);
  EXPECT_THROW((void)obs::queue_lengths_at(trace, 2, {0.0, 2.0, 1.0}), std::invalid_argument);
}

TEST(ObsQueueReplay, RefusesAQueueRecordOnANodeOutsideTheSystem) {
  // Node 1 is outside a one-node system.
  EXPECT_THROW((void)obs::queue_lengths_at(hand_built_replication(), 1, {0.0}),
               std::invalid_argument);
  obs::TraceBuffer unowned;
  unowned.emit(0.0, obs::Kind::kTaskArrive, -1, -1, 3);
  EXPECT_THROW((void)obs::queue_lengths_at(unowned, 2, {0.0}), std::invalid_argument);
}

// ---------- metrics registry ----------

TEST(ObsRegistry, InstrumentSemantics) {
  obs::Registry reg;
  reg.counter("a").add();
  reg.counter("a").add(4);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  reg.gauge("g").set(2.0);
  reg.gauge("g").max_of(1.0);  // lower value must not win
  EXPECT_EQ(reg.gauge("g").value(), 2.0);
  reg.gauge("g").max_of(7.5);
  EXPECT_EQ(reg.gauge("g").value(), 7.5);
  obs::Histogram& h = reg.histogram("h");
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 7.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 4.0);
}

TEST(ObsRegistry, MergeIsCommutative) {
  const auto build = [](std::uint64_t c, double g, std::initializer_list<double> hs) {
    obs::Registry reg;
    reg.counter("shared").add(c);
    reg.counter("only_" + std::to_string(c)).add(1);
    reg.gauge("peak").max_of(g);
    for (double v : hs) reg.histogram("lat").observe(v);
    return reg;
  };
  obs::Registry ab = build(3, 1.5, {0.1, 10.0});
  obs::Registry ba = build(9, 4.0, {0.5, 1e6, -1.0});
  ab.merge(build(9, 4.0, {0.5, 1e6, -1.0}));
  ba.merge(build(3, 1.5, {0.1, 10.0}));
  EXPECT_EQ(ab.counter("shared").value(), 12u);
  EXPECT_EQ(ba.counter("shared").value(), 12u);
  EXPECT_EQ(ab.counter("only_3").value(), 1u);
  EXPECT_EQ(ab.counter("only_9").value(), 1u);
  EXPECT_EQ(ab.gauge("peak").value(), 4.0);
  EXPECT_EQ(ba.gauge("peak").value(), 4.0);
  const obs::Histogram& ha = ab.histogram("lat");
  const obs::Histogram& hb = ba.histogram("lat");
  EXPECT_EQ(ha.count(), hb.count());
  EXPECT_EQ(ha.sum(), hb.sum());
  EXPECT_EQ(ha.min(), hb.min());
  EXPECT_EQ(ha.max(), hb.max());
  for (std::size_t i = 0; i < obs::Histogram::kBucketCount; ++i) {
    ASSERT_EQ(ha.bucket(i), hb.bucket(i)) << "bucket " << i;
  }
}

TEST(ObsHistogram, BucketEdgesAreConsistent) {
  // Non-positive values land in the dedicated bucket 0.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_lower(0), 0.0);
  // Mid-range values fall inside [lower(i), lower(i+1)).
  for (const double v : {1e-4, 0.02, 0.5, 1.0, 3.0, 77.65, 1e4, 1e9}) {
    const std::size_t i = obs::Histogram::bucket_index(v);
    ASSERT_GT(i, 0u) << v;
    ASSERT_LT(i, obs::Histogram::kBucketCount) << v;
    EXPECT_LE(obs::Histogram::bucket_lower(i), v) << v;
    if (i + 1 < obs::Histogram::kBucketCount) {
      EXPECT_LT(v, obs::Histogram::bucket_lower(i + 1)) << v;
    }
    // Log-linear grid: relative bucket width is bounded (1/kSubBuckets).
    if (i + 1 < obs::Histogram::kBucketCount) {
      const double lo = obs::Histogram::bucket_lower(i);
      const double hi = obs::Histogram::bucket_lower(i + 1);
      EXPECT_LE((hi - lo) / lo, 1.0 / obs::Histogram::kSubBuckets + 1e-12) << v;
    }
  }
  // Out-of-range magnitudes clamp instead of indexing out of bounds.
  EXPECT_EQ(obs::Histogram::bucket_index(1e-300), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(1e300), obs::Histogram::kBucketCount - 1);
}

TEST(ObsRegistry, WriteJsonEmitsAllSections) {
  obs::Registry reg;
  reg.counter("events").add(2);
  reg.gauge("depth").set(3.5);
  reg.histogram("lat").observe(1.0);
  std::ostringstream os;
  reg.write_json(os, 0);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": 2"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ---------- exporters ----------

TEST(ObsExport, JsonlRoundTripIsLossless) {
  obs::TraceBuffer trace;
  trace.emit(0.0, obs::Kind::kRepBegin, -1, -1, 0, 0);
  trace.emit(1.5, obs::Kind::kTransferSend, 0, 1, 35, obs::Record::pack_f64(1.0 / 3.0));
  trace.emit(10.0, obs::Kind::kFail, 0);
  trace.emit(30.0, obs::Kind::kRecover, 0, -1, 0, obs::Record::pack_f64(-0.0));
  obs::TraceMeta meta;
  meta.scenario = "paper-two-node";
  meta.seed = 0x5eed2006;
  meta.replications = 2;
  meta.git_revision = "deadbeef";
  std::stringstream ss;
  obs::write_jsonl(ss, trace, &meta);
  const std::string first_line = ss.str().substr(0, ss.str().find('\n'));
  EXPECT_NE(first_line.find("\"meta\""), std::string::npos);
  EXPECT_NE(first_line.find("paper-two-node"), std::string::npos);
  const std::vector<obs::Record> back = obs::read_jsonl(ss);
  EXPECT_EQ(back, trace.to_vector());
}

TEST(ObsExport, ChromeTraceMapsReplicationsToPidsAndNodesToTids) {
  obs::TraceBuffer trace;
  trace.emit(0.0, obs::Kind::kRepBegin, -1, -1, 0, 3);
  trace.emit(2.0, obs::Kind::kServiceStart, 1);
  std::ostringstream os;
  obs::write_chrome(os, trace);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 3"), std::string::npos);  // from the marker payload
  EXPECT_NE(json.find("service_start"), std::string::npos);
}

// ---------- engine-level pins ----------

TEST(ObsEngine, ScheduledChurnPinsExactFailAndRecoverRecords) {
  // The ISSUE's pin: `0:down@10-30` must surface as exactly one kFail and one
  // kRecover for node 0, at t = 10 and t = 30, per replication.
  const mc::ScenarioConfig config =
      family_scenario("scheduled-churn", {{"schedule", "0:down@10-30"}});
  obs::TraceBuffer trace;
  mc::McConfig mc;
  mc.replications = 2;
  mc.seed = test::kFixedSeed;
  mc.threads = 1;
  mc.obs.trace = &trace;
  (void)mc::run_monte_carlo(config, mc);
  EXPECT_EQ(trace.count(obs::Kind::kRepBegin), 2u);
  ASSERT_EQ(trace.count(obs::Kind::kFail), 2u);
  ASSERT_EQ(trace.count(obs::Kind::kRecover), 2u);
  trace.for_each([](const obs::Record& r) {
    if (r.kind_enum() == obs::Kind::kFail) {
      EXPECT_EQ(r.node, 0);
      EXPECT_DOUBLE_EQ(r.time, 10.0);
    }
    if (r.kind_enum() == obs::Kind::kRecover) {
      EXPECT_EQ(r.node, 0);
      EXPECT_DOUBLE_EQ(r.time, 30.0);
    }
  });
}

TEST(ObsEngine, TraceCountsAgreeWithRunStatistics) {
  const mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  obs::TraceBuffer trace;
  mc::McConfig mc;
  mc.replications = 4;
  mc.seed = test::kFixedSeed;
  mc.threads = 1;
  mc.obs.trace = &trace;
  const mc::McResult result = mc::run_monte_carlo(config, mc);
  EXPECT_EQ(trace.count(obs::Kind::kRepBegin), 4u);
  // Finite runs complete every initial task, once each.
  EXPECT_EQ(trace.count(obs::Kind::kTaskComplete), 4u * 160u);
  EXPECT_EQ(static_cast<double>(trace.count(obs::Kind::kFail)),
            result.mean_failures * 4.0);
  EXPECT_EQ(static_cast<double>(trace.count(obs::Kind::kTransferSend)),
            result.mean_bundles * 4.0);
  // Every send is eventually delivered (transfers are never lost in the
  // abstract model).
  EXPECT_EQ(trace.count(obs::Kind::kTransferDeliver),
            trace.count(obs::Kind::kTransferSend));
}

/// The registry's JSON (17 significant digits, so equal text is equal bits)
/// without the wall-clock *.reps_per_s gauges.
std::string metrics_without_rates(const obs::Registry& metrics) {
  std::ostringstream json;
  metrics.write_json(json);
  std::istringstream lines(json.str());
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("reps_per_s") == std::string::npos) out += line + "\n";
  }
  return out;
}

TEST(ObsEngine, TraceIsThreadCountIndependent) {
  // The trace and every metric (the histogram sums included) are folded in
  // replication order, so they keep the threads = 1 bits.
  const mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 40, 20, std::make_unique<core::Lbp1Policy>(0, 0.35));
  obs::TraceBuffer serial_trace;
  obs::Registry serial_metrics;
  mc::McConfig serial;
  serial.replications = 40;
  serial.seed = test::kFixedSeed;
  serial.threads = 1;
  serial.obs.trace = &serial_trace;
  serial.obs.metrics = &serial_metrics;
  (void)mc::run_monte_carlo(config, serial);
  for (const unsigned threads : {2u, 4u, 8u}) {
    obs::TraceBuffer parallel_trace;
    obs::Registry parallel_metrics;
    mc::McConfig parallel = serial;
    parallel.threads = threads;
    parallel.obs.trace = &parallel_trace;
    parallel.obs.metrics = &parallel_metrics;
    (void)mc::run_monte_carlo(config, parallel);
    ASSERT_EQ(serial_trace.size(), parallel_trace.size()) << "threads " << threads;
    EXPECT_EQ(serial_trace.to_vector(), parallel_trace.to_vector()) << "threads " << threads;
    EXPECT_EQ(metrics_without_rates(serial_metrics), metrics_without_rates(parallel_metrics))
        << "threads " << threads;
  }
}

TEST(ObsEngine, MetricsCountersMatchDriverStatistics) {
  const mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  obs::Registry metrics;
  mc::McConfig mc;
  mc.replications = 6;
  mc.seed = test::kFixedSeed;
  mc.threads = 2;
  mc.obs.metrics = &metrics;
  const mc::McResult result = mc::run_monte_carlo(config, mc);
  EXPECT_EQ(metrics.counter("mc.replications").value(), 6u);
  EXPECT_EQ(metrics.counter("mc.tasks_completed").value(), 6u * 160u);
  EXPECT_EQ(static_cast<double>(metrics.counter("mc.failures").value()),
            result.mean_failures * 6.0);
  EXPECT_GT(metrics.counter("des.events.scheduled").value(), 0u);
  EXPECT_GE(metrics.counter("des.events.scheduled").value(),
            metrics.counter("des.events.popped").value());
  EXPECT_GT(metrics.gauge("des.queue.max_depth").value(), 0.0);
  EXPECT_EQ(metrics.histogram("mc.completion_time").count(), 6u);
  EXPECT_GT(metrics.gauge("mc.reps_per_s").value(), 0.0);
}

/// The trace's kPolicyDecision records, and those of them with count 0.
std::pair<std::uint64_t, std::uint64_t> decision_records(const obs::TraceBuffer& trace) {
  std::uint64_t all = 0;
  std::uint64_t empty = 0;
  for (const obs::Record& r : trace.to_vector()) {
    if (r.kind_enum() != obs::Kind::kPolicyDecision) continue;
    ++all;
    if (r.count == 0) ++empty;
  }
  return {all, empty};
}

TEST(ObsEngine, PolicyDecisionCountersAgreeWithTheTrace) {
  // At n = 256 every LBP-2 share rounds to zero, so every decision is empty.
  const mc::ScenarioConfig churn = family_scenario("many-node-churn", {{"nodes", "256"}});
  obs::TraceBuffer trace;
  obs::Registry metrics;
  mc::McConfig mc;
  mc.replications = 3;
  mc.seed = test::kFixedSeed;
  mc.threads = 2;
  mc.obs.trace = &trace;
  mc.obs.metrics = &metrics;
  const mc::McResult observed = mc::run_monte_carlo(churn, mc);
  const std::uint64_t decisions = metrics.counter("policy.decisions").value();
  const std::uint64_t empty = metrics.counter("policy.decisions.empty").value();
  EXPECT_GT(decisions, 3u);
  EXPECT_EQ(empty, decisions);
  EXPECT_EQ(decision_records(trace), std::make_pair(decisions, empty));
  // Counting reads no RNG: the statistics do not move a bit without the sinks.
  mc::McConfig plain = mc;
  plain.obs = {};
  const mc::McResult unobserved = mc::run_monte_carlo(churn, plain);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(unobserved.mean()),
            std::bit_cast<std::uint64_t>(observed.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(unobserved.completion.variance()),
            std::bit_cast<std::uint64_t>(observed.completion.variance()));

  // LBP-1's t = 0 transfer is a non-empty decision; its churn hooks are empty.
  const mc::ScenarioConfig paper = family_scenario("paper-two-node", {});
  obs::TraceBuffer paper_trace;
  obs::Registry paper_metrics;
  mc.obs.trace = &paper_trace;
  mc.obs.metrics = &paper_metrics;
  (void)mc::run_monte_carlo(paper, mc);
  const std::uint64_t paper_decisions = paper_metrics.counter("policy.decisions").value();
  const std::uint64_t paper_empty = paper_metrics.counter("policy.decisions.empty").value();
  EXPECT_LT(paper_empty, paper_decisions);
  EXPECT_EQ(decision_records(paper_trace), std::make_pair(paper_decisions, paper_empty));

  // The testbed counts where it writes its records too: one t = 0 decision
  // per node, then one per churn event.
  obs::TraceBuffer bed_trace;
  obs::Registry bed_metrics;
  mc::ObsSinks sinks;
  sinks.trace = &bed_trace;
  sinks.metrics = &bed_metrics;
  const mc::ScenarioConfig bed = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 40, 20, std::make_unique<core::Lbp2Policy>(0.5));
  (void)run_testbed(bed, 4, 2, sinks);
  const std::uint64_t bed_decisions = bed_metrics.counter("policy.decisions").value();
  const std::uint64_t bed_empty = bed_metrics.counter("policy.decisions.empty").value();
  EXPECT_GT(bed_decisions, 8u);
  EXPECT_LT(bed_empty, bed_decisions);
  EXPECT_EQ(decision_records(bed_trace), std::make_pair(bed_decisions, bed_empty));
}

TEST(ObsProfile, MergeSumsAndEngineFillsPhases) {
  obs::PhaseProfile a;
  a.setup_s = 1.0;
  a.streams_s = 0.25;
  a.loop_s = 2.0;
  a.fold_s = 0.5;
  a.policy_s = 0.125;
  a.reps = 3;
  a.events = 100;
  obs::PhaseProfile b;
  b.streams_s = 0.5;
  b.loop_s = 4.0;
  b.policy_s = 0.25;
  b.reps = 2;
  b.events = 23;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.streams_s, 0.75);
  EXPECT_DOUBLE_EQ(a.loop_s, 6.0);
  EXPECT_DOUBLE_EQ(a.policy_s, 0.375);
  EXPECT_DOUBLE_EQ(a.total_s(), 7.5);  // streams_s and policy_s lie inside the phases
  EXPECT_EQ(a.reps, 5u);
  EXPECT_EQ(a.events, 123u);

  const mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 40, 20, std::make_unique<core::Lbp1Policy>(0, 0.35));
  obs::PhaseProfile profile;
  obs::Registry metrics;
  mc::McConfig mc;
  mc.replications = 4;
  mc.seed = test::kFixedSeed;
  mc.threads = 1;
  mc.obs.profile = &profile;
  mc.obs.metrics = &metrics;
  const mc::McResult profiled = mc::run_monte_carlo(config, mc);
  EXPECT_EQ(profile.reps, 4u);
  EXPECT_GT(profile.loop_s, 0.0);
  EXPECT_GT(profile.streams_s, 0.0);
  EXPECT_LE(profile.streams_s, profile.setup_s);
  EXPECT_GE(profile.total_s(), profile.loop_s);
  // The policy hooks (LBP-1's t = 0 split among them) run inside setup and loop.
  EXPECT_GT(profile.policy_s, 0.0);
  EXPECT_LE(profile.policy_s, profile.setup_s + profile.loop_s);
  // Every event of the run fires inside the loop the profile brackets.
  EXPECT_GT(profile.events, 0u);
  EXPECT_EQ(profile.events, metrics.counter("des.events.popped").value());
  // Profiling reads the clock only: the statistics do not move a bit.
  mc::McConfig unprofiled = mc;
  unprofiled.obs = {};
  const mc::McResult plain = mc::run_monte_carlo(config, unprofiled);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.mean()),
            std::bit_cast<std::uint64_t>(profiled.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.completion.variance()),
            std::bit_cast<std::uint64_t>(profiled.completion.variance()));

  obs::PhaseProfile bed_profile;
  obs::Registry bed_metrics;
  mc::ObsSinks sinks;
  sinks.profile = &bed_profile;
  sinks.metrics = &bed_metrics;
  const mc::ScenarioConfig bed = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 40, 20, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::McResult bed_profiled = run_testbed(bed, 4, 1, sinks);
  EXPECT_EQ(bed_profile.reps, 4u);
  EXPECT_GT(bed_profile.streams_s, 0.0);
  EXPECT_LE(bed_profile.streams_s, bed_profile.setup_s);
  EXPECT_GT(bed_profile.policy_s, 0.0);
  EXPECT_LE(bed_profile.policy_s, bed_profile.setup_s + bed_profile.loop_s);
  EXPECT_GT(bed_profile.events, 0u);
  EXPECT_EQ(bed_profile.events, bed_metrics.counter("des.events.popped").value());
  const mc::McResult bed_plain = run_testbed(bed, 4, 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bed_plain.mean()),
            std::bit_cast<std::uint64_t>(bed_profiled.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bed_plain.state_age.mean()),
            std::bit_cast<std::uint64_t>(bed_profiled.state_age.mean()));
}

// ---------- bit identity: the invariant the whole layer hangs on ----------

TEST(ObsBitIdentity, FiniteEngineIsUnperturbedByAllThreeSinks) {
  const mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  mc::McConfig plain;
  plain.replications = 10;
  plain.seed = test::kFixedSeed;
  plain.threads = 2;
  mc::McConfig observed = plain;
  obs::TraceBuffer trace;
  obs::Registry metrics;
  obs::PhaseProfile profile;
  observed.obs.trace = &trace;
  observed.obs.metrics = &metrics;
  observed.obs.profile = &profile;
  const mc::McResult a = mc::run_monte_carlo(config, plain);
  const mc::McResult b = mc::run_monte_carlo(config, observed);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.std_error(), b.std_error());
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p90, b.p90);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.mean_failures, b.mean_failures);
  EXPECT_DOUBLE_EQ(a.mean_tasks_moved, b.mean_tasks_moved);
  EXPECT_GT(trace.size(), 0u);
}

TEST(ObsBitIdentity, SteadyEngineIsUnperturbedByAllThreeSinks) {
  mc::ScenarioConfig config = family_scenario("open-steady", {});
  config.steady.tasks = 2000;
  config.steady.batches = 8;
  mc::SteadyConfig plain;
  plain.replications = 2;
  plain.seed = test::kFixedSeed;
  plain.threads = 1;
  mc::SteadyConfig observed = plain;
  obs::TraceBuffer trace;
  obs::Registry metrics;
  obs::PhaseProfile profile;
  observed.obs.trace = &trace;
  observed.obs.metrics = &metrics;
  observed.obs.profile = &profile;
  const mc::SteadyResult a = mc::run_steady(config, plain);
  const mc::SteadyResult b = mc::run_steady(config, observed);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.std_error(), b.std_error());
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(metrics.counter("steady.replications").value(), 2u);
}

TEST(ObsBitIdentity, TestbedEngineIsUnperturbedByAllThreeSinks) {
  const mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 40, 20, std::make_unique<core::Lbp1Policy>(0, 0.35));
  obs::TraceBuffer trace;
  obs::Registry metrics;
  obs::PhaseProfile profile;
  mc::ObsSinks sinks;
  sinks.trace = &trace;
  sinks.metrics = &metrics;
  sinks.profile = &profile;
  const mc::McResult a = run_testbed(config, 20, 2);
  const mc::McResult b = run_testbed(config, 20, 2, sinks);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.ci95(), b.ci95());
  EXPECT_DOUBLE_EQ(a.mean_failures, b.mean_failures);
  EXPECT_DOUBLE_EQ(a.state_age.mean(), b.state_age.mean());
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(metrics.counter("testbed.realizations").value(), 20u);
}

}  // namespace
}  // namespace lbsim
