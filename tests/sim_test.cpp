// Unit tests for the DES kernel: event ordering, cancellation, clock, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

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

TEST(EventQueueTest, RandomOperationsMatchReferenceOrder) {
  // 12,000 seeded random operations against a plain reference ordered by
  // (time, push order). Times come from eight values, so ties are common.
  // Growth and drain phases alternate so that the queue holds more than 64
  // live events and cancel-heavy stretches trigger compactions.
  EventQueue q;
  std::mt19937_64 rng(0x5eed15);
  std::set<std::pair<double, std::size_t>> reference;  // (time, push index)
  std::vector<EventId> ids;
  std::vector<double> times;
  std::size_t fired = std::numeric_limits<std::size_t>::max();
  std::size_t max_live = 0;
  std::size_t pops = 0;
  std::size_t stale_cancels = 0;
  std::size_t clears = 0;
  for (int op = 0; op < 12000; ++op) {
    const bool growing = (op / 1500) % 2 == 0;
    const std::uint64_t dice = rng() % 100;
    if (rng() % 1000 == 0) {
      q.clear();
      reference.clear();
      ++clears;
    } else if (dice < (growing ? 55u : 25u)) {
      const std::size_t k = ids.size();
      const double time = static_cast<double>(rng() % 8) * 0.5;
      ids.push_back(q.push(time, [&fired, k] { fired = k; }));
      times.push_back(time);
      reference.emplace(time, k);
    } else if (dice < 75) {
      if (ids.empty()) continue;
      // Half the picks come from the newest pushes (mostly live), the rest
      // from every id ever issued (mostly fired, cancelled or cleared).
      const std::size_t window = std::min<std::size_t>(ids.size(), 128);
      const std::size_t k = rng() % 2 == 0 ? ids.size() - 1 - rng() % window
                                           : static_cast<std::size_t>(rng() % ids.size());
      const bool live = reference.erase({times[k], k}) == 1;
      if (!live) ++stale_cancels;
      ASSERT_EQ(q.cancel(ids[k]), live) << "op " << op << " id " << k;
    } else if (!reference.empty()) {
      const auto expected = *reference.begin();
      reference.erase(reference.begin());
      ASSERT_EQ(q.next_time(), expected.first) << "op " << op;
      EventQueue::Entry entry = q.pop();
      ASSERT_EQ(entry.time, expected.first) << "op " << op;
      entry.callback();
      ASSERT_EQ(fired, expected.second) << "op " << op;
      ++pops;
    } else {
      EXPECT_THROW((void)q.pop(), std::invalid_argument);
    }
    ASSERT_EQ(q.size(), reference.size()) << "op " << op;
    ASSERT_EQ(q.empty(), reference.empty()) << "op " << op;
    max_live = std::max(max_live, q.size());
  }
  EXPECT_GT(max_live, 64u);
  EXPECT_GE(q.stats().compactions, 1u);
  EXPECT_GT(pops, 1000u);
  EXPECT_GT(stale_cancels, 100u);
  EXPECT_GE(clears, 1u);
  EXPECT_EQ(q.stats().scheduled, ids.size());
  EXPECT_EQ(q.stats().popped, pops);
}

TEST(EventQueueTest, FiredRecordWaitsAtTheRootForTheNextPush) {
  // pop() leaves the fired record at the heap root; the next push()
  // overwrites it instead of appending, and the next pop() drops it if no
  // push came. A compaction sweeps it away like any other corpse.
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.push(static_cast<double>(i % 10), [] {});
  const EventQueue::Entry first = q.pop();
  EXPECT_EQ(first.time, 0.0);
  EXPECT_EQ(q.size(), 99u);
  EXPECT_EQ(q.heap_records(), q.size() + 1);
  q.push(first.time + 4.5, [] {});
  EXPECT_EQ(q.heap_records(), q.size());
  (void)q.pop();
  (void)q.pop();  // no push in between: the first corpse is dropped
  EXPECT_EQ(q.heap_records(), q.size() + 1);

  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(q.push(20.0 + i, [] {}));
  (void)q.pop();
  const std::uint64_t compactions = q.stats().compactions;
  for (const EventId id : ids) {
    q.cancel(id);
    if (q.stats().compactions > compactions) break;
  }
  ASSERT_GT(q.stats().compactions, compactions);
  EXPECT_EQ(q.heap_records(), q.size());  // the corpse went with the sweep
  q.push(4.75, [] {});
  EXPECT_EQ(q.heap_records(), q.size());

  const std::size_t live = q.size();
  double last = 0.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    const EventQueue::Entry e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    ++popped;
  }
  EXPECT_EQ(popped, live);
}

TEST(EventQueueTest, CallbacksThatPushCancelAndClearMatchReferenceOrder) {
  // The simulator-level twin of RandomOperationsMatchReferenceOrder: every
  // callback checks that it fires in (time, push order), then pushes,
  // cancels and resets at random both before and after scheduling its
  // successors, so the fired record at the root meets every operation. Bursts
  // of cancels compact the heap inside a callback, before its first push.
  Simulator sim;
  std::mt19937_64 rng(0xf05ed);
  std::set<std::pair<double, std::size_t>> reference;  // (time, push index)
  std::vector<EventId> ids;
  std::vector<double> times;
  std::size_t fired = 0, mismatches = 0, stale_cancels = 0, resets = 0;
  std::size_t compacted_before_successor = 0, max_live = 0;

  std::function<void(std::size_t)> fire;
  const auto push = [&](double delay) {
    const std::size_t k = ids.size();
    times.push_back(sim.now() + delay);
    reference.emplace(times.back(), k);
    ids.push_back(sim.schedule_in(delay, [&fire, k] { fire(k); }));
  };
  const auto offset = [&] { return static_cast<double>(rng() % 8) * 0.5; };
  const auto cancel_one = [&] {
    const std::size_t window = std::min<std::size_t>(ids.size(), 128);
    const std::size_t k = rng() % 2 == 0 ? ids.size() - 1 - rng() % window
                                         : static_cast<std::size_t>(rng() % ids.size());
    const bool live = reference.erase({times[k], k}) == 1;
    if (!live) ++stale_cancels;
    if (sim.cancel(ids[k]) != live) ++mismatches;
  };
  const auto reset = [&] {
    sim.reset();
    reference.clear();
    ++resets;
    for (int i = 0; i < 120; ++i) push(offset());
  };
  const auto random_ops = [&] {
    const std::uint64_t dice = rng() % 1000;
    if (dice < 2) {
      reset();
    } else if (dice < 12 && reference.size() >= 64) {
      // Cancel three in four live events: enough to compact the heap.
      const std::vector live(reference.begin(), reference.end());
      for (const auto& [time, k] : live) {
        if (rng() % 4 == 0) continue;
        reference.erase({time, k});
        if (!sim.cancel(ids[k])) ++mismatches;
      }
    } else if (dice < 200) {
      cancel_one();
    } else if (dice < 300) {
      push(offset());
    }
  };
  fire = [&](std::size_t k) {
    ++fired;
    if (reference.empty() || *reference.begin() != std::make_pair(sim.now(), k)) {
      ++mismatches;
      return;
    }
    reference.erase(reference.begin());
    if (sim.cancel(ids[k])) ++mismatches;  // the fired event is not cancellable
    const std::uint64_t compactions = sim.queue_stats().compactions;
    random_ops();
    if (sim.queue_stats().compactions > compactions) ++compacted_before_successor;
    const std::uint64_t successors = reference.size() < 96 ? 2 : rng() % 10 == 0 ? 0 : 1;
    for (std::uint64_t i = 0; i < successors; ++i) push(offset());
    random_ops();
    max_live = std::max(max_live, reference.size());
  };

  for (int i = 0; i < 120; ++i) push(offset());
  sim.run_while_pending([&] { return fired >= 30000 || mismatches > 0; });
  EXPECT_EQ(mismatches, 0u) << "after " << fired << " events";
  EXPECT_EQ(sim.pending_events(), reference.size());
  EXPECT_EQ(fired, 30000u);
  EXPECT_GT(max_live, 64u);
  EXPECT_GE(compacted_before_successor, 1u);
  EXPECT_GT(stale_cancels, 100u);
  EXPECT_GE(resets, 1u);
}

TEST(EventQueueTest, ThrowingCopyInsideACallbackLeavesTheQueueUnchanged) {
  // Inside a callback the fired record still sits at the root, so a push
  // there takes the overwriting path; a callable whose construction throws
  // must leave that path, and the appending one, as if push() was not called.
  struct CopyThrows {
    CopyThrows() = default;
    CopyThrows(const CopyThrows&) { throw std::runtime_error("copy"); }
    CopyThrows(CopyThrows&&) noexcept = default;
    void operator()() const {}
  };
  EventQueue q;
  std::vector<int> fired;
  for (int i = 1; i <= 3; ++i) {
    q.push(static_cast<double>(i), [&fired, i] { fired.push_back(i); });
  }
  q.push(0.5, [&] {
    const CopyThrows throws_on_copy;
    ASSERT_EQ(q.heap_records(), q.size() + 1);  // the fired record
    EXPECT_THROW(q.push(0.75, throws_on_copy), std::runtime_error);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.heap_records(), 4u);
    EXPECT_DOUBLE_EQ(q.next_time(), 1.0);  // drops the fired record
    EXPECT_EQ(q.heap_records(), 3u);
    EXPECT_THROW(q.push(0.75, throws_on_copy), std::runtime_error);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.heap_records(), 3u);
    EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
    q.push(1.5, [&] { fired.push_back(15); });
  });
  q.pop().callback();
  EXPECT_EQ(q.stats().scheduled, 5u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 15, 2, 3}));
}

TEST(EventQueueTest, LargeAndThrowingMoveCallablesRunFromTheHeapFallback) {
  // A capture beyond SmallCallback::kInlineSize, and a callable whose move
  // may throw, both live behind a heap pointer; they must fire, cancel and
  // survive slab growth like inline ones.
  struct ThrowingMove {
    int* hits;
    explicit ThrowingMove(int* h) : hits(h) {}
    ThrowingMove(const ThrowingMove&) = default;
    ThrowingMove(ThrowingMove&& other) noexcept(false) : hits(other.hits) {}
    void operator()() const { ++*hits; }
  };
  static_assert(!std::is_nothrow_move_constructible_v<ThrowingMove>);
  EventQueue q;
  std::array<std::uint64_t, 16> big{};
  std::iota(big.begin(), big.end(), 1);
  static_assert(sizeof(big) > SmallCallback::kInlineSize);
  std::uint64_t big_sum = 0;
  int throwing_hits = 0;
  q.push(1.0, [big, &big_sum] { big_sum = std::accumulate(big.begin(), big.end(), big_sum); });
  q.push(2.0, ThrowingMove(&throwing_hits));
  const EventId cancelled = q.push(3.0, [big, &big_sum] { big_sum += big[0]; });
  // Grow the slab well past its first allocation: the fallback pointers move.
  for (int i = 0; i < 100; ++i) q.push(4.0 + i, [] {});
  EXPECT_TRUE(q.cancel(cancelled));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(big_sum, 136u);  // 1 + 2 + ... + 16
  EXPECT_EQ(throwing_hits, 1);
}

TEST(EventQueueTest, LvalueStdFunctionIsCopiedNotConsumed) {
  // The periodic-rebalance tick in mc::run_scenario reschedules itself by
  // passing the same std::function lvalue again; each push must copy it.
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick;
  tick = [&] {
    ++ticks;
    if (ticks < 5) sim.schedule_in(1.0, tick);
  };
  sim.schedule_in(1.0, tick);
  EXPECT_TRUE(static_cast<bool>(tick));
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_TRUE(static_cast<bool>(tick));
}

TEST(EventQueueTest, NullAndEmptyCallbacksThrowAndLeaveTheQueueUnchanged) {
  EventQueue q;
  q.push(1.0, [] {});
  EXPECT_THROW(q.push(2.0, nullptr), std::invalid_argument);
  EXPECT_THROW(q.push(2.0, SmallCallback{}), std::invalid_argument);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.stats().scheduled, 1u);
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(1.0, SmallCallback{}), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
  // A non-empty SmallCallback is moved in.
  bool ran = false;
  SmallCallback cb([&] { ran = true; });
  sim.schedule_in(1.0, std::move(cb));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, ThrowingCopyLeavesTheQueueUnchanged) {
  // Building the callable in its slot may throw; the queue must look as if
  // push() had never been called.
  struct CopyThrows {
    CopyThrows() = default;
    CopyThrows(const CopyThrows&) { throw std::runtime_error("copy"); }
    CopyThrows(CopyThrows&&) noexcept = default;
    void operator()() const {}
  };
  EventQueue q;
  bool ran = false;
  q.push(1.0, [&] { ran = true; });
  const CopyThrows throws_on_copy;
  EXPECT_THROW(q.push(0.5, throws_on_copy), std::runtime_error);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.heap_records(), 1u);
  EXPECT_EQ(q.stats().scheduled, 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.pop().callback();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CallbackThatGrowsTheSlabKeepsItsOwnState) {
  // The running callback was moved out of the slab before it ran, so pushing
  // enough events to reallocate the slab cannot pull its captures from under it.
  Simulator sim;
  std::vector<int> order;
  const std::string label(200, 'x');  // owns heap memory; ASan sees a dangling read
  std::size_t label_size_after_growth = 0;
  sim.schedule_in(1.0, [&sim, &order, &label_size_after_growth, label] {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(1.0, [&order, i] { order.push_back(i); });
    }
    label_size_after_growth = label.size();
  });
  sim.run();
  EXPECT_EQ(label_size_after_growth, 200u);
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(sim.executed_events(), 1001u);
}

TEST(EventQueueTest, ThrowingCallbackLeavesAConsistentQueue) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [] { throw std::runtime_error("callback"); });
  q.push(2.0, [&] { fired.push_back(2); });
  q.push(3.0, [&] { fired.push_back(3); });
  EXPECT_THROW(q.pop().callback(), std::runtime_error);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop().callback();
  EXPECT_EQ(fired, std::vector<int>{2});

  Simulator sim;
  sim.schedule_at(1.0, [] { throw std::runtime_error("callback"); });
  sim.schedule_at(2.0, [&] { fired.push_back(20); });
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, (std::vector<int>{2, 20}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
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

TEST(SimulatorTest, RunWhilePendingRejectsANullPredicate) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  EXPECT_THROW(sim.run_while_pending(std::function<bool()>{}), std::invalid_argument);
  bool (*no_predicate)() = nullptr;
  EXPECT_THROW(sim.run_while_pending(no_predicate), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 1u);
  const std::function<bool()> never = [] { return false; };
  EXPECT_DOUBLE_EQ(sim.run_while_pending(never), 1.0);
}

TEST(SimulatorTest, EmptyStdFunctionAndNullFunctionPointerAreRejectedWhenScheduled) {
  // Any argument that can be empty is checked at push time, so an empty one
  // fails where it is scheduled rather than when it fires.
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(1.0, std::function<void()>{}), std::invalid_argument);
  void (*no_callback)() = nullptr;
  EXPECT_THROW(sim.schedule_at(1.0, no_callback), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.queue_stats().scheduled, 0u);
}

TEST(SimulatorTest, ResetRestartsExecutedEventsButKeepsQueueStats) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.schedule_in(2.0, [] {});
  sim.step();
  sim.reset();
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.queue_stats().scheduled, 2u);
  EXPECT_EQ(sim.queue_stats().popped, 1u);
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
