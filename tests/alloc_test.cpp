// Allocation gate for the replication loop. A worker's replication workspace
// is reset, not rebuilt, so once it has warmed up a replication allocates only
// what its policy returns (directive vectors) and what the steady engine's
// fold keeps; the testbed's state plane carries each packet copy inside its
// delivery event and allocates nothing.
// This executable replaces the global operator new with a counting one, so
// each test measures the allocations a run makes.
//
// Each test runs N and 2N replications (threads = 1, so there is one worker
// and one workspace) and pins allocs(2N) - allocs(N): the allocations of
// replications N..2N-1, with every per-run and warm-up allocation cancelled
// out. The pinned totals are exact libstdc++ counts with no slack; a
// per-node, per-bundle or per-block allocation that returns moves them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "cli/registry.hpp"
#include "core/policy.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "mc/steady.hpp"
#include "testbed/config.hpp"
#include "testbed/experiment.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

// Out of line, so that GCC does not inline the free() into a caller whose
// new-expression it takes for the builtin operator new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}

namespace lbsim::mc {
namespace {

constexpr std::size_t kReps = 50;  // N: the runs are N and 2N replications

/// Allocations made inside the policy's hooks, wherever they run.
std::atomic<std::uint64_t> g_hook_allocations{0};

/// Forwards every call to the wrapped policy and books the allocations its
/// hooks make (the directive vectors they return) to g_hook_allocations, so
/// the gate can tell the engine's allocations from the policy's.
class HookCounter final : public core::LoadBalancingPolicy {
 public:
  explicit HookCounter(core::PolicyPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<core::TransferDirective> on_start(
      const core::SystemView& view) override {
    return counted([&] { return inner_->on_start(view); });
  }
  [[nodiscard]] bool start_only() const noexcept override { return inner_->start_only(); }
  [[nodiscard]] std::vector<core::TransferDirective> on_failure(
      int node, const core::SystemView& view) override {
    return counted([&] { return inner_->on_failure(node, view); });
  }
  [[nodiscard]] std::vector<core::TransferDirective> on_recovery(
      int node, const core::SystemView& view) override {
    return counted([&] { return inner_->on_recovery(node, view); });
  }
  [[nodiscard]] std::vector<core::TransferDirective> on_periodic(
      const core::SystemView& view) override {
    return counted([&] { return inner_->on_periodic(view); });
  }
  [[nodiscard]] bool needs_rng() const noexcept override { return inner_->needs_rng(); }
  void bind_rng(stoch::RngStream* rng) override { inner_->bind_rng(rng); }
  [[nodiscard]] core::PolicyPtr clone() const override {
    return std::make_unique<HookCounter>(inner_->clone());
  }

 private:
  template <typename Hook>
  static std::vector<core::TransferDirective> counted(const Hook& hook) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    std::vector<core::TransferDirective> directives = hook();
    g_hook_allocations.fetch_add(g_allocations.load(std::memory_order_relaxed) - before,
                                 std::memory_order_relaxed);
    return directives;
  }

  core::PolicyPtr inner_;
};

ScenarioConfig family(const std::string& name, const std::string& overrides = "") {
  const cli::ScenarioSpec& spec = cli::find_scenario(name);
  cli::RawConfig raw;
  std::istringstream words(overrides);
  for (std::string word; words >> word;) cli::apply_override(raw, word);
  ScenarioConfig config = spec.build(spec.schema.resolve(raw));
  config.policy = std::make_unique<HookCounter>(std::move(config.policy));
  return config;
}

/// The allocations of replications N..2N-1, allocs(run(2N)) - allocs(run(N)):
/// those the policy's hooks made, and all the others.
struct Allocations {
  std::uint64_t engine = 0;
  std::uint64_t policy = 0;
};

template <typename Run>
Allocations past_warmup(const Run& run) {
  const auto allocations = [&run](std::size_t reps) {
    const std::uint64_t all = g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t hooks = g_hook_allocations.load(std::memory_order_relaxed);
    run(reps);
    const std::uint64_t policy = g_hook_allocations.load(std::memory_order_relaxed) - hooks;
    return Allocations{g_allocations.load(std::memory_order_relaxed) - all - policy, policy};
  };
  const Allocations once = allocations(kReps);
  const Allocations twice = allocations(2 * kReps);
  return {twice.engine - once.engine, twice.policy - once.policy};
}

Allocations finite_run(const ScenarioConfig& config, VrMode vr = VrMode::kNone) {
  return past_warmup([&](std::size_t reps) {
    McConfig mc;
    mc.replications = reps;
    mc.threads = 1;
    mc.vr = vr;
    (void)run_monte_carlo(config, mc);
  });
}

/// The testbed engine's allocations: `scenario` mapped as `--engine=testbed`
/// maps it, run through testbed::run_experiment on one worker.
Allocations testbed_run(const ScenarioConfig& scenario) {
  const testbed::TestbedConfig config = testbed::from_scenario(scenario.clone());
  return past_warmup([&](std::size_t reps) {
    (void)testbed::run_experiment(config, reps, 0xbed2006, /*threads=*/1);
  });
}

TEST(AllocGate, CountingAllocatorSeesTheHeap) {
  const std::uint64_t before = g_allocations.load();
  ::operator delete(::operator new(16));
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST(AllocGate, PaperTwoNode) {
  // One allocation per replication: the vector LBP-1's t = 0 split returns.
  const Allocations a = finite_run(family("paper-two-node"));
  EXPECT_EQ(a.engine, 0u);
  EXPECT_EQ(a.policy, 1 * kReps);
}

TEST(AllocGate, PaperTwoNodeVarianceReduced) {
  // The target and its churn-free surrogate take turns on one workspace; each
  // returns one t = 0 directive vector.
  const Allocations a = finite_run(family("paper-two-node"), VrMode::kBoth);
  EXPECT_EQ(a.engine, 0u);
  EXPECT_EQ(a.policy, 2 * kReps);
}

TEST(AllocGate, GraphRr) {
  // The probe rounds that move work return one directive vector each (7.56
  // per replication). The engine's 3 are capacity growth: a new high-water of
  // bundles in flight, or of a queue's deque map, in replications 59 and 65.
  const Allocations a = finite_run(family("graph-rr"));
  EXPECT_EQ(a.engine, 3u);
  EXPECT_EQ(a.policy, 378u);
}

TEST(AllocGate, ManyNodeChurn) {
  // LBP-2's t = 0 split (1,008 one-task bundles) is all of it: the directive
  // vector, allocated once at its exact size (the policy keeps
  // core::excess_balance's scratch). Its failure decisions move no work at
  // this n and allocate nothing.
  const Allocations a = finite_run(family("many-node-churn", "nodes=64"));
  EXPECT_EQ(a.engine, 0u);
  EXPECT_EQ(a.policy, 1 * kReps);
}

TEST(AllocGate, OpenSteady) {
  // The engine's share is the steady fold's per-replication state. Samples
  // are kept so that both runs take the exact-quantile path.
  const ScenarioConfig config = family("open-steady", "steady.tasks=1000 steady.batches=16");
  const Allocations a = past_warmup([&](std::size_t reps) {
    SteadyConfig sc;
    sc.replications = reps;
    sc.threads = 1;
    sc.collect_samples = true;
    (void)run_steady(config, sc);
  });
  // Five per replication: MSER-5's three scratch vectors, the batch means
  // and the kept post-warm-up window. LBP-2's decisions add 34.12: the
  // directive vectors they return.
  EXPECT_EQ(a.engine, 5 * kReps);
  EXPECT_EQ(a.policy, 1706u);
}

TEST(AllocGate, TestbedQuietStatePlane) {
  // No broadcast round (period 1,000 s) and no churn: each node's t = 0
  // decision returns one directive vector, and the engine allocates nothing
  // per realization (run_experiment reserves its sample vector up front).
  const Allocations a =
      testbed_run(family("lossy-exchange", "exchange.period=1000 churn=false"));
  EXPECT_EQ(a.engine, 0u);
  EXPECT_EQ(a.policy, 2 * kReps);
}

TEST(AllocGate, TestbedLossyExchange) {
  // Each node broadcasts once per 1 s round, and every surviving copy is one
  // kernel event holding its packet inline (net::Network::broadcast_state),
  // so the rounds allocate nothing. The one engine allocation left is
  // capacity: in one of these replications a broadcast round takes the event
  // heap to a new high-water mark, and its vector grows from 8 to 16 records.
  const Allocations a = testbed_run(family("lossy-exchange"));
  EXPECT_EQ(a.engine, 1u);
  EXPECT_EQ(a.policy, 277u);
}

TEST(AllocGate, TestbedMultiNode) {
  // Four nodes broadcast each round, three copies per packet, and the engine
  // allocates nothing: no capacity grows past the first 50 realizations.
  const Allocations a = testbed_run(family("multi-node"));
  EXPECT_EQ(a.engine, 0u);
  EXPECT_EQ(a.policy, 1908u);
}

}  // namespace
}  // namespace lbsim::mc
