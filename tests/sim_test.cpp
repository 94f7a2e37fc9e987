// Unit tests for the DES kernel: event ordering, cancellation, clock, tracing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace lbsim::des {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.push(5.0, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(EventId{}));  // invalid handle is a safe no-op
}

TEST(EventQueueTest, CancelledEntrySkippedOnPop) {
  EventQueue q;
  std::vector<int> fired;
  const EventId dead = q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  q.cancel(dead);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop().callback();
  EXPECT_EQ(fired, std::vector<int>{2});
}

TEST(EventQueueTest, CancelOfAlreadyFiredEventReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.pop().callback();  // fires the 1.0 event
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, CancelOfFiredEventNeverHitsARecycledSlot) {
  // The fired event's pool slot is recycled by the next push; a stale handle
  // must not cancel the new occupant.
  EventQueue q;
  const EventId stale = q.push(1.0, [] {});
  q.pop().callback();
  bool ran = false;
  q.push(1.0, [&] { ran = true; });  // reuses the freed slot
  EXPECT_FALSE(q.cancel(stale));
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, FifoTieBreakSurvivesSlotRecycling) {
  // Interleave pushes, cancels, and pops so slots are recycled mid-sequence;
  // events at the same timestamp must still fire in scheduling order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.push(5.0, [&fired, i] { fired.push_back(i); }));
  q.cancel(ids[0]);
  q.cancel(ids[3]);
  // These reuse the two freed slots but must still fire after 1..7.
  for (int i = 8; i < 10; ++i) q.push(5.0, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, ClearDuringDispatchIsSafe) {
  // A callback may clear() the queue it is firing from (the popped callback
  // was moved out of the pool before invocation).
  EventQueue q;
  bool later_ran = false;
  q.push(1.0, [&] { q.clear(); });
  q.push(2.0, [&] { later_ran = true; });
  while (!q.empty()) q.pop().callback();
  EXPECT_FALSE(later_ran);
  EXPECT_TRUE(q.empty());
  // The queue is fully usable afterwards, and old handles stay dead.
  bool ran = false;
  q.push(3.0, [&] { ran = true; });
  q.pop().callback();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, MassCancellationCompactsTheHeap) {
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(static_cast<double>(i % 97), [] {}));
  }
  // Cancel 90%: lazy cancellation must not leave ~900 corpses in the heap.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(q.cancel(ids[i]));
    }
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_LE(q.heap_records(), 2 * q.size());
  // Survivors still pop in (time, serial) order.
  double last = -1.0;
  while (!q.empty()) {
    EventQueue::Entry e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueueTest, RejectsBadTimesAndNullCallbacks) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.push(1.0, nullptr), std::invalid_argument);
  EXPECT_THROW((void)q.pop(), std::invalid_argument);
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_at(1.5, [&] { seen.push_back(sim.now()); });
  sim.schedule_in(0.5, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<double>{0.5, 1.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_in(1.0, [&] {
    seen.push_back(sim.now());
    sim.schedule_in(1.0, [&] { seen.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
}

TEST(SimulatorTest, SchedulePastThrows) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-0.1, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, RunUntilStopsAndSetsClock) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) sim.schedule_at(static_cast<double>(i), [&] { ++fired; });
  sim.run_until(5.5);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.5);
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, RunWhilePendingHonoursStopPredicate) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) sim.schedule_at(static_cast<double>(i), [&] { ++fired; });
  sim.run_while_pending([&] { return fired >= 3; });
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, ResetClearsEverything) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.schedule_in(2.0, [] {});
  sim.step();
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_in(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

// ---------- trace ----------

TEST(TimeSeriesTest, StepFunctionLookup) {
  TimeSeries ts;
  ts.record(0.0, 10.0);
  ts.record(2.0, 8.0);
  ts.record(5.0, 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1.99), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(2.0), 8.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 0.0);
}

TEST(TimeSeriesTest, RejectsTimeTravel) {
  TimeSeries ts;
  ts.record(1.0, 1.0);
  EXPECT_THROW(ts.record(0.5, 2.0), std::invalid_argument);
  EXPECT_THROW((void)ts.value_at(0.5), std::invalid_argument);
}

TEST(TimeSeriesTest, EqualTimesAllowedLastWins) {
  TimeSeries ts;
  ts.record(1.0, 1.0);
  ts.record(1.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 2.0);
}

TEST(TimeSeriesTest, ResampleHoldsLastValue) {
  TimeSeries ts;
  ts.record(0.0, 4.0);
  ts.record(10.0, 7.0);
  const auto pts = ts.resample(0.0, 20.0, 5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts[0].value, 4.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 4.0);   // t = 5
  EXPECT_DOUBLE_EQ(pts[2].value, 7.0);   // t = 10
  EXPECT_DOUBLE_EQ(pts[4].value, 7.0);   // t = 20
}

TEST(TimeSeriesTest, ValueAtOnEmptySeriesThrows) {
  TimeSeries ts;
  EXPECT_THROW((void)ts.value_at(0.0), std::invalid_argument);
}

TEST(TimeSeriesTest, ResampleOnEmptySeriesThrows) {
  TimeSeries ts;
  EXPECT_THROW((void)ts.resample(0.0, 1.0, 3), std::invalid_argument);
}

TEST(TimeSeriesTest, ResampleRejectsReversedWindow) {
  TimeSeries ts;
  ts.record(0.0, 1.0);
  EXPECT_THROW((void)ts.resample(2.0, 1.0, 3), std::invalid_argument);
}

TEST(TimeSeriesTest, SinglePointDegenerateWindow) {
  // t0 == t1 collapses the grid onto one instant; a single recorded point
  // must cover it and every later query time.
  TimeSeries ts;
  ts.record(1.0, 5.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 5.0);
  const auto pts = ts.resample(1.0, 1.0, 4);
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& p : pts) {
    EXPECT_DOUBLE_EQ(p.time, 1.0);
    EXPECT_DOUBLE_EQ(p.value, 5.0);
  }
}

TEST(EventQueueStatsTest, CountsScheduledPoppedCancelled) {
  EventQueue q;
  const EventId dead = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.push(3.0, [] {});
  EXPECT_TRUE(q.cancel(dead));
  while (!q.empty()) q.pop().callback();
  const EventQueue::Stats& s = q.stats();
  EXPECT_EQ(s.scheduled, 3u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.popped, 2u);
  EXPECT_EQ(s.max_depth, 3u);
}

TEST(EventQueueStatsTest, StatsSurviveClear) {
  // Engines reuse one simulator across a replication loop; the instruments
  // are cumulative so a per-worker fold sees the whole loop's work.
  EventQueue q;
  q.push(1.0, [] {});
  q.clear();
  q.push(1.0, [] {});
  q.pop().callback();
  const EventQueue::Stats& s = q.stats();
  EXPECT_EQ(s.scheduled, 2u);
  EXPECT_EQ(s.popped, 1u);
}

TEST(SimulatorTest, ExposesQueueStats) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_EQ(sim.queue_stats().scheduled, 2u);
  EXPECT_EQ(sim.queue_stats().popped, 2u);
}

}  // namespace
}  // namespace lbsim::des
