// Unit tests for the compute-element substrate: service, failure freezing,
// checkpoint-resume, extraction, and the alternating-renewal failure process.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "node/block_pool.hpp"
#include "node/compute_element.hpp"
#include "node/failure_process.hpp"
#include "node/task.hpp"
#include "sim/simulator.hpp"
#include "stochastic/rng.hpp"

namespace lbsim::node {
namespace {

/// Unit service: a size-based CE at rate 1 serves each unit-size task
/// (enqueue_units) in exactly 1 s.
constexpr double kUnitRate = 1.0;
constexpr bool kSizeBased = true;

/// One CE, seated on the fixture's kernel and stream with unit service, its
/// queue drawing from the fixture's pool.
struct Fixture {
  Fixture() { ce.reset(sim, 0, kUnitRate, kSizeBased, rng); }

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
}

TEST(ComputeElementTest, FailureFreezesService) {
  Fixture f;
  ComputeElement& ce = f.ce;
  std::vector<double> done_at;
  ce.set_completion_handler([&](const Task&) { done_at.push_back(f.sim.now()); });
  ce.enqueue_units(2, 1);
  // Fail at t = 0.4 (task 1 is 40% done), recover at t = 10.4.
  f.sim.schedule_at(0.4, [&] { ce.fail(); });
  f.sim.schedule_at(5.0, [&] { EXPECT_FALSE(ce.is_up()); });
  f.sim.schedule_at(10.4, [&] { ce.recover(); });
  f.sim.run();
  // Task 1 finishes at 10.4 + 0.6 = 11.0 (checkpoint-resume), task 2 at 12.0.
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_DOUBLE_EQ(done_at[0], 11.0);
  EXPECT_DOUBLE_EQ(done_at[1], 12.0);
  EXPECT_TRUE(ce.is_up());
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
  EXPECT_FALSE(ce.is_up());
  ce.recover();
  ce.recover();  // no-op
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
  int completed = 0;
  ce.set_completion_handler([&](const Task&) { ++completed; });
  ce.enqueue_units(3, 1);
  TaskChain out(f.pool);
  EXPECT_EQ(ce.extract_tasks(10, out), 3u);
  EXPECT_EQ(ce.queue_length(), 0u);
  f.sim.run();
  EXPECT_EQ(completed, 0);
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

TEST(ComputeElementTest, StochasticServiceUsesProvidedStream) {
  BlockPool pool;
  des::Simulator sim;
  stoch::RngStream rng_a(7), rng_b(7);
  ComputeElement a(pool);
  a.reset(sim, 0, 2.0, /*size_based=*/false, rng_a);
  a.enqueue_units(50, 1);
  sim.run();
  const double t_a = sim.now();
  des::Simulator sim2;
  ComputeElement b(pool);
  b.reset(sim2, 0, 2.0, /*size_based=*/false, rng_b);
  b.enqueue_units(50, 1);
  sim2.run();
  EXPECT_DOUBLE_EQ(t_a, sim2.now());  // same stream, same trajectory
}

/// Tasks 1, 2, ... with the given sizes, queued as one batch.
void enqueue_sized(ComputeElement& ce, BlockPool& pool, const std::vector<double>& sizes) {
  TaskChain batch(pool);
  for (std::size_t k = 0; k < sizes.size(); ++k) batch.push_back(Task{k + 1, sizes[k], 0, 0.0});
  ce.enqueue_batch(batch);
}

TEST(ComputeElementTest, SizeBasedServiceTakesSizeOverRate) {
  BlockPool pool;
  des::Simulator sim;
  stoch::RngStream rng(7);
  ComputeElement ce(pool);
  ce.reset(sim, 0, 1.5, kSizeBased, rng);
  std::vector<double> done_at;
  ce.set_completion_handler([&](const Task&) { done_at.push_back(sim.now()); });
  enqueue_sized(ce, pool, {3.0, 0.75, 0.0});
  sim.run();
  // 3 / 1.5 = 2, then 0.75 / 1.5 = 0.5, then a zero-size task takes no time.
  EXPECT_EQ(done_at, (std::vector<double>{2.0, 2.5, 2.5}));
  stoch::RngStream untouched(7);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());  // the service drew nothing
}

TEST(ComputeElementTest, ExponentialServiceDrawsFromItsStreamWhateverTheSize) {
  BlockPool pool;
  des::Simulator sim;
  stoch::RngStream rng(24);
  ComputeElement ce(pool);
  ce.reset(sim, 0, 1.08, /*size_based=*/false, rng);
  std::vector<double> done_at;
  ce.set_completion_handler([&](const Task&) { done_at.push_back(sim.now()); });
  enqueue_sized(ce, pool, {0.001, 1000.0, 1.0});
  sim.run();
  stoch::RngStream expect(24);
  std::vector<double> expected;
  double t = 0.0;
  for (int k = 0; k < 3; ++k) expected.push_back(t += expect.exponential(1.08));
  EXPECT_EQ(done_at, expected);
}

TEST(ComputeElementTest, ResetRefusesANonPositiveRate) {
  des::Simulator sim;
  stoch::RngStream rng(1);
  BlockPool pool;
  ComputeElement ce(pool);
  for (const double rate : {0.0, -1.0, std::nan("")}) {
    EXPECT_THROW(ce.reset(sim, 0, rate, /*size_based=*/false, rng), std::invalid_argument)
        << rate;
    EXPECT_THROW(ce.reset(sim, 0, rate, kSizeBased, rng), std::invalid_argument) << rate;
  }
}

// ---------- workspace form: pooled queues and bundles, reset ----------

TEST(ComputeElementTest, PooledBundleKeepsExtractionOrderAcrossBlocks) {
  // 40 tasks span three pool blocks of a bundle; they must leave in
  // extraction order (back of the queue first) and arrive in that order.
  Fixture f;
  int sender_completed = 0;
  f.ce.set_completion_handler([&](const Task&) { ++sender_completed; });
  f.ce.enqueue_units(50, 1);
  TaskChain bundle(f.pool);
  EXPECT_EQ(f.ce.extract_tasks(40, bundle), 40u);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t id = 50; id > 10; --id) expected.push_back(id);
  EXPECT_EQ(ids(bundle), expected);
  ComputeElement receiver(f.pool);
  receiver.reset(f.sim, 2, kUnitRate, kSizeBased, f.rng);
  std::vector<std::uint64_t> completed;
  receiver.set_completion_handler([&](const Task& t) { completed.push_back(t.id); });
  receiver.enqueue_batch(bundle);
  EXPECT_TRUE(bundle.empty());
  EXPECT_EQ(receiver.queue_length(), 40u);
  f.sim.run();
  EXPECT_EQ(completed, expected);
  EXPECT_EQ(sender_completed, 10);
}

TEST(ComputeElementTest, ResetReturnsAWorkspaceCeToItsFreshState) {
  Fixture f;
  BlockPool pool;
  ComputeElement ce(pool);
  ce.reset(f.sim, 3, kUnitRate, kSizeBased, f.rng);
  ce.enqueue_units(5, 1);
  f.sim.schedule_at(0.5, [&] { ce.fail(); });  // freezes task 1 half done
  f.sim.run_until(1.0);
  ASSERT_FALSE(ce.is_up());
  // The next replication resets the kernel first, then the CE.
  f.sim.reset();
  ce.reset(f.sim, 4, kUnitRate, kSizeBased, f.rng);
  EXPECT_EQ(ce.id(), 4);
  EXPECT_TRUE(ce.is_up());
  EXPECT_EQ(ce.queue_length(), 0u);
  // No frozen work carries over: the first task takes its full second.
  int completed = 0;
  ce.set_completion_handler([&](const Task&) { ++completed; });
  ce.enqueue_units(1, 1);
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.sim.now(), 1.0);
  EXPECT_EQ(completed, 1);
}

// ---------- failure process ----------
//
// A churn driver draws Exp(lambda_f) / hazard multiplier and Exp(lambda_r) on
// its stream, so a second stream on the same seed predicts every churn
// instant bit for bit. The fixture's CE holds no task, so churn timers are
// the only events.

TEST(FailureProcessTest, ResetRestoresTheNotStartedState) {
  des::Simulator sim;
  stoch::RngStream svc_rng(1), churn_rng(2), expect(2);
  BlockPool pool;
  ComputeElement ce(pool);
  ce.reset(sim, 0, kUnitRate, kSizeBased, svc_rng);
  FailureProcess churn(ce);
  churn.reset(sim, 0.5, 1.0, churn_rng);
  churn.set_hazard_multiplier(4.0);
  int failures = 0;
  churn.set_failure_handler([&](int) { ++failures; });
  churn.start();
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), expect.exponential(0.5) / 4.0);
  EXPECT_EQ(failures, 1);
  (void)expect.exponential(1.0);  // the recovery armed by that failure
  sim.reset();
  ce.reset(sim, 0, kUnitRate, kSizeBased, svc_rng);
  churn.reset(sim, 0.5, 1.0, churn_rng);
  EXPECT_DOUBLE_EQ(churn.hazard_multiplier(), 1.0);
  churn.start();  // not running any more, so it may start again
  ASSERT_TRUE(sim.step());
  // The first failure comes at an undivided draw, and the old handler is gone.
  EXPECT_EQ(sim.now(), expect.exponential(0.5));
  EXPECT_FALSE(ce.is_up());
  EXPECT_EQ(failures, 1);
}

TEST(FailureProcessTest, AlternatesUpDown) {
  Fixture f;
  stoch::RngStream churn_rng(2), expect(2);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, 0.5, 1.0, churn_rng);
  std::vector<double> failed_at, recovered_at;
  churn.set_failure_handler([&](int) { failed_at.push_back(f.sim.now()); });
  churn.set_recovery_handler([&](int) { recovered_at.push_back(f.sim.now()); });
  churn.start();
  std::vector<double> expect_failed, expect_recovered;
  double t = 0.0;
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(f.sim.step());
    EXPECT_FALSE(f.ce.is_up());
    ASSERT_TRUE(f.sim.step());
    EXPECT_TRUE(f.ce.is_up());
    expect_failed.push_back(t += expect.exponential(0.5));
    expect_recovered.push_back(t += expect.exponential(1.0));
  }
  EXPECT_EQ(failed_at, expect_failed);
  EXPECT_EQ(recovered_at, expect_recovered);
}

TEST(FailureProcessTest, InitiallyDownFailsImmediately) {
  Fixture f;
  stoch::RngStream churn_rng(2), expect(2);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, 0.0, 1.0 / 3.0, churn_rng);
  int failures = 0;
  churn.set_failure_handler([&](int) { ++failures; });
  churn.start(/*initially_down=*/true);
  EXPECT_FALSE(f.ce.is_up());
  EXPECT_EQ(failures, 1);
  ASSERT_TRUE(f.sim.step());
  EXPECT_EQ(f.sim.now(), expect.exponential(1.0 / 3.0));
  EXPECT_TRUE(f.ce.is_up());
  // With no failure rate nothing more is armed: the node stays up.
  EXPECT_EQ(f.sim.pending_events(), 0u);
}

TEST(FailureProcessTest, NullFailureLawMeansReliable) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, 0.0, 0.0, churn_rng);
  int failures = 0;
  churn.set_failure_handler([&](int) { ++failures; });
  churn.start();
  int completed = 0;
  f.ce.set_completion_handler([&](const Task&) { ++completed; });
  f.ce.enqueue_units(5, 1);
  f.sim.run();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(completed, 5);
}

TEST(FailureProcessTest, FailureLawWithoutRecoveryRejected) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  FailureProcess churn(f.ce);
  EXPECT_THROW(churn.reset(f.sim, 0.05, 0.0, churn_rng), std::invalid_argument);
}

TEST(FailureProcessTest, ResetRefusesANegativeRate) {
  Fixture f;
  stoch::RngStream churn_rng(2);
  FailureProcess churn(f.ce);
  EXPECT_THROW(churn.reset(f.sim, -0.05, 1.0, churn_rng), std::invalid_argument);
  EXPECT_THROW(churn.reset(f.sim, 0.0, -1.0, churn_rng), std::invalid_argument);
  EXPECT_THROW(churn.reset(f.sim, std::nan(""), 1.0, churn_rng), std::invalid_argument);
  churn.reset(f.sim, 0.0, 1.0, churn_rng);  // may start down and recover
  churn.start(/*initially_down=*/true);
  EXPECT_FALSE(f.ce.is_up());
}

TEST(FailureProcessTest, EmpiricalAvailabilityMatchesTheory) {
  // Long-run fraction of up time ~ lambda_r / (lambda_f + lambda_r) = 2/3 for
  // mean up 20 s / mean down 10 s (node 1 of the paper).
  Fixture f;
  stoch::RngStream churn_rng(99);
  FailureProcess churn(f.ce);
  churn.reset(f.sim, 1.0 / 20.0, 1.0 / 10.0, churn_rng);
  // Down time accumulates over completed down periods, from the handlers.
  double went_down_at = 0.0;
  double down_time = 0.0;
  churn.set_failure_handler([&](int) { went_down_at = f.sim.now(); });
  churn.set_recovery_handler([&](int) { down_time += f.sim.now() - went_down_at; });
  churn.start();
  const double horizon = 200000.0;
  f.sim.run_until(horizon);
  const double up_fraction = 1.0 - down_time / horizon;
  EXPECT_NEAR(up_fraction, 2.0 / 3.0, 0.02);
}

}  // namespace
}  // namespace lbsim::node
