// Unit tests for the compute-element substrate: service, failure freezing,
// checkpoint-resume, extraction, and the alternating-renewal failure process.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "node/block_pool.hpp"
#include "node/compute_element.hpp"
#include "node/failure_process.hpp"
#include "node/task.hpp"
#include "sim/simulator.hpp"
#include "stochastic/distributions.hpp"
#include "stochastic/stats.hpp"

namespace lbsim::node {
namespace {

/// Deterministic unit service: every task takes exactly 1 s.
ComputeElement::ServiceTimeFn unit_service() {
  return [](const Task&, stoch::RngStream&) { return 1.0; };
}

/// One CE, seated on the fixture's kernel and stream with unit service, its
/// queue drawing from the fixture's pool.
struct Fixture {
  Fixture() { ce.reset(sim, 0, unit_service(), rng); }

  des::Simulator sim;
  stoch::RngStream rng{42};
  BlockPool pool;
  ComputeElement ce{pool};
};

std::vector<std::uint64_t> ids(const TaskChain& tasks) {
  std::vector<std::uint64_t> out;
  for (const Task& task : tasks) out.push_back(task.id);
  return out;
}

TEST(TaskTest, MakeUnitTasks) {
  const TaskBatch batch = make_unit_tasks(3, 7, 100);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 100u);
  EXPECT_EQ(batch[2].id, 102u);
  EXPECT_EQ(batch[1].origin, 7);
  EXPECT_DOUBLE_EQ(batch[1].size, 1.0);
}

TEST(ComputeElementTest, ProcessesQueueInOrder) {
  Fixture f;
  ComputeElement& ce = f.ce;
  std::vector<std::uint64_t> completed;
  ce.set_completion_handler([&](const Task& t) { completed.push_back(t.id); });
  ce.enqueue_units(3, 1);
  f.sim.run();
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(f.sim.now(), 3.0);
  EXPECT_EQ(ce.queue_length(), 0u);
  EXPECT_EQ(ce.stats().tasks_completed, 3u);
}

TEST(ComputeElementTest, FailureFreezesService) {
  Fixture f;
  ComputeElement& ce = f.ce;
  int completed = 0;
  ce.set_completion_handler([&](const Task&) { ++completed; });
  ce.enqueue_units(2, 1);
  // Fail at t = 0.4 (task 1 is 40% done), recover at t = 10.4.
  f.sim.schedule_at(0.4, [&] { ce.fail(); });
  f.sim.schedule_at(10.4, [&] { ce.recover(); });
  f.sim.run();
  // Task 1 finishes at 10.4 + 0.6 = 11.0 (checkpoint-resume), task 2 at 12.0.
  EXPECT_EQ(completed, 2);
  EXPECT_DOUBLE_EQ(f.sim.now(), 12.0);
  EXPECT_DOUBLE_EQ(ce.stats().down_time, 10.0);
  EXPECT_EQ(ce.stats().failures, 1u);
  EXPECT_EQ(ce.stats().recoveries, 1u);
}

TEST(ComputeElementTest, TasksArrivingWhileDownWaitForRecovery) {
  Fixture f;
  ComputeElement& ce = f.ce;
  int completed = 0;
  ce.set_completion_handler([&](const Task&) { ++completed; });
  ce.fail();
  ce.enqueue_units(2, 1);
  f.sim.schedule_at(5.0, [&] { ce.recover(); });
  f.sim.run();
  EXPECT_EQ(completed, 2);
  EXPECT_DOUBLE_EQ(f.sim.now(), 7.0);
}

TEST(ComputeElementTest, FailRecoverIdempotent) {
  Fixture f;
  ComputeElement& ce = f.ce;
  ce.fail();
  ce.fail();  // no-op
  EXPECT_EQ(ce.stats().failures, 1u);
  ce.recover();
  ce.recover();  // no-op
  EXPECT_EQ(ce.stats().recoveries, 1u);
  EXPECT_TRUE(ce.is_up());
}

TEST(ComputeElementTest, ExtractTakesFromBack) {
  Fixture f;
  ComputeElement& ce = f.ce;
  ce.enqueue_units(5, 1);  // ids 1..5, 1 in service
  TaskChain out(f.pool);
  ASSERT_EQ(ce.extract_tasks(2, out), 2u);
  // Most recently queued leaves first.
  EXPECT_EQ(ids(out), (std::vector<std::uint64_t>{5, 4}));
  EXPECT_EQ(ce.queue_length(), 3u);
  // Head task was untouched: completions still happen at 1.0, 2.0, 3.0.
  int completed = 0;
  ce.set_completion_handler([&](const Task&) { ++completed; });
  f.sim.run();
  EXPECT_EQ(completed, 3);
  EXPECT_DOUBLE_EQ(f.sim.now(), 3.0);
}

TEST(ComputeElementTest, ExtractMoreThanQueueTakesAllAndAbortsService) {
  Fixture f;
  ComputeElement& ce = f.ce;
  ce.enqueue_units(3, 1);
  TaskChain out(f.pool);
  EXPECT_EQ(ce.extract_tasks(10, out), 3u);
  EXPECT_EQ(ce.queue_length(), 0u);
  f.sim.run();
  EXPECT_EQ(ce.stats().tasks_completed, 0u);
}

TEST(ComputeElementTest, ExtractFromDownNodePreservesFrozenWork) {
  Fixture f;
  ComputeElement& ce = f.ce;
  ce.enqueue_units(4, 1);
  f.sim.schedule_at(0.5, [&] {
    ce.fail();
    TaskChain out(f.pool);
    EXPECT_EQ(ce.extract_tasks(2, out), 2u);  // LBP-2 backup action
  });
  f.sim.schedule_at(1.5, [&] { ce.recover(); });
  int completed = 0;
  ce.set_completion_handler([&](const Task&) { ++completed; });
  f.sim.run();
  // Frozen head resumes at 1.5 with 0.5 s left -> 2.0; second task -> 3.0.
  EXPECT_EQ(completed, 2);
  EXPECT_DOUBLE_EQ(f.sim.now(), 3.0);
}

TEST(ComputeElementTest, ExtractZeroOrEmptyIsEmpty) {
  Fixture f;
  ComputeElement& ce = f.ce;
  TaskChain out(f.pool);
  EXPECT_EQ(ce.extract_tasks(5, out), 0u);
  ce.enqueue_units(2, 1);
  EXPECT_EQ(ce.extract_tasks(0, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(ComputeElementTest, QueueTraceRecordsChanges) {
  Fixture f;
  ComputeElement& ce = f.ce;
  des::TimeSeries trace;
  ce.set_queue_trace(&trace);
  ce.enqueue_units(2, 1);
  f.sim.run();
  EXPECT_DOUBLE_EQ(trace.value_at(0.0), 2.0);
  EXPECT_DOUBLE_EQ(trace.value_at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.value_at(2.0), 0.0);
}

TEST(ComputeElementTest, StochasticServiceUsesProvidedStream) {
  const ComputeElement::ServiceTimeFn exp2 = [](const Task&, stoch::RngStream& r) {
    return r.exponential(2.0);
  };
  BlockPool pool;
  des::Simulator sim;
  stoch::RngStream rng_a(7), rng_b(7);
  ComputeElement a(pool);
  a.reset(sim, 0, exp2, rng_a);
  a.enqueue_units(50, 1);
  sim.run();
  const double t_a = sim.now();
  des::Simulator sim2;
  ComputeElement b(pool);
  b.reset(sim2, 0, exp2, rng_b);
  b.enqueue_units(50, 1);
  sim2.run();
  EXPECT_DOUBLE_EQ(t_a, sim2.now());  // same stream, same trajectory
}

// ---------- workspace form: pooled queues and bundles, reset ----------

TEST(ComputeElementTest, PooledBundleKeepsExtractionOrderAcrossBlocks) {
  // 40 tasks span three pool blocks of a bundle; they must leave in
  // extraction order (back of the queue first) and arrive in that order.
  Fixture f;
  f.ce.enqueue_units(50, 1);
  TaskChain bundle(f.pool);
  EXPECT_EQ(f.ce.extract_tasks(40, bundle), 40u);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t id = 50; id > 10; --id) expected.push_back(id);
  EXPECT_EQ(ids(bundle), expected);
  ComputeElement receiver(f.pool);
  receiver.reset(f.sim, 2, unit_service(), f.rng);
  std::vector<std::uint64_t> completed;
  receiver.set_completion_handler([&](const Task& t) { completed.push_back(t.id); });
  receiver.enqueue_batch(bundle);
  EXPECT_TRUE(bundle.empty());
  EXPECT_EQ(receiver.stats().tasks_received, 40u);
  f.sim.run();
  EXPECT_EQ(completed, expected);
  EXPECT_EQ(f.ce.stats().tasks_completed, 10u);
}

TEST(ComputeElementTest, ResetReturnsAWorkspaceCeToItsFreshState) {
  Fixture f;
  BlockPool pool;
  ComputeElement ce(pool);
  ce.reset(f.sim, 3, unit_service(), f.rng);
  ce.enqueue_units(5, 1);
  f.sim.schedule_at(0.5, [&] { ce.fail(); });  // freezes task 1 half done
  f.sim.run_until(1.0);
  ASSERT_FALSE(ce.is_up());
  // The next replication resets the kernel first, then the CE.
  f.sim.reset();
  ce.reset(f.sim, 4, unit_service(), f.rng);
  EXPECT_EQ(ce.id(), 4);
  EXPECT_TRUE(ce.is_up());
  EXPECT_EQ(ce.queue_length(), 0u);
  EXPECT_EQ(ce.stats().failures, 0u);
  EXPECT_EQ(ce.stats().tasks_received, 0u);
  // No frozen work carries over: the first task takes its full second.
  ce.enqueue_units(1, 1);
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.sim.now(), 1.0);
  EXPECT_EQ(ce.stats().tasks_completed, 1u);
}

// ---------- failure process ----------

TEST(FailureProcessTest, ResetRestoresTheNotStartedState) {
  des::Simulator sim;
  stoch::RngStream svc_rng(1), churn_rng(2);
  BlockPool pool;
  ComputeElement ce(pool);
  ce.reset(sim, 0, unit_service(), svc_rng);
  const stoch::Deterministic ttf(2.0);
  const stoch::Deterministic ttr(1.0);
  FailureProcess churn(ce);
  churn.reset(sim, &ttf, &ttr, churn_rng);
  churn.set_hazard_multiplier(4.0);
  int failures = 0;
  churn.set_failure_handler([&](int) { ++failures; });
  churn.start();
  sim.run_until(1.0);  // failed at 2 / 4 = 0.5
  EXPECT_EQ(failures, 1);
  sim.reset();
  ce.reset(sim, 0, unit_service(), svc_rng);
  churn.reset(sim, &ttf, &ttr, churn_rng);
  EXPECT_DOUBLE_EQ(churn.hazard_multiplier(), 1.0);
  churn.start();  // not running any more, so it may start again
  sim.run_until(1.5);
  EXPECT_TRUE(ce.is_up());  // the first failure now comes at t = 2
  sim.run_until(2.5);
  EXPECT_FALSE(ce.is_up());
  EXPECT_EQ(failures, 1);  // the old handler is gone
}

TEST(FailureProcessTest, AlternatesUpDown) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  const stoch::Deterministic ttf(2.0);
  const stoch::Deterministic ttr(1.0);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, &ttf, &ttr, churn_rng);
  int failures = 0, recoveries = 0;
  churn.set_failure_handler([&](int) { ++failures; });
  churn.set_recovery_handler([&](int) { ++recoveries; });
  churn.start();
  f.sim.run_until(10.5);  // fail at 2,5,8; recover at 3,6,9
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(recoveries, 3);
  churn.stop();
}

TEST(FailureProcessTest, InitiallyDownFailsImmediately) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  const stoch::Deterministic ttr(3.0);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, nullptr, &ttr, churn_rng);
  churn.start(/*initially_down=*/true);
  EXPECT_FALSE(f.ce.is_up());
  f.sim.run_until(3.5);
  EXPECT_TRUE(f.ce.is_up());  // recovered at t = 3, and (no failure law) stays up
  f.sim.run_until(100.0);
  EXPECT_TRUE(f.ce.is_up());
}

TEST(FailureProcessTest, NullFailureLawMeansReliable) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, nullptr, nullptr, churn_rng);
  churn.start();
  f.ce.enqueue_units(5, 1);
  f.sim.run();
  EXPECT_EQ(f.ce.stats().failures, 0u);
  EXPECT_EQ(f.ce.stats().tasks_completed, 5u);
}

TEST(FailureProcessTest, FailureLawWithoutRecoveryRejected) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  const stoch::Exponential ttf(0.05);
  FailureProcess churn(f.ce);
  EXPECT_THROW(churn.reset(f.sim, &ttf, nullptr, churn_rng), std::invalid_argument);
}

TEST(FailureProcessTest, StopCancelsPendingChurn) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  const stoch::Deterministic ttf(2.0);
  const stoch::Deterministic ttr(1.0);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, &ttf, &ttr, churn_rng);
  churn.start();
  churn.stop();
  f.sim.run_until(10.0);
  EXPECT_EQ(f.ce.stats().failures, 0u);
}

TEST(FailureProcessTest, EmpiricalAvailabilityMatchesTheory) {
  // Long-run fraction of up time ~ lambda_r / (lambda_f + lambda_r) = 2/3 for
  // mean up 20 s / mean down 10 s (node 1 of the paper).
  Fixture f;
  stoch::RngStream churn_rng(99);
  const stoch::Exponential ttf(1.0 / 20.0);
  const stoch::Exponential ttr(1.0 / 10.0);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, &ttf, &ttr, churn_rng);
  churn.start();
  const double horizon = 200000.0;
  f.sim.run_until(horizon);
  const double up_fraction = 1.0 - f.ce.stats().down_time / horizon;
  EXPECT_NEAR(up_fraction, 2.0 / 3.0, 0.02);
}

}  // namespace
}  // namespace lbsim::node
