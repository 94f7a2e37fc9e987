#pragma once
/// \file
/// Layer probes of the lbsim benchmark, all outside the program: a per-thread
/// allocation counter, the in-memory span log, the timing policy decorator,
/// and timed replays of the stochastic, sim and net layers at a workload's
/// measured sizes.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "net/topology.hpp"
#include "testbed/config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Global operator new calls made so far by the calling thread. The counter
/// is always on; only the traced run reads it.
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

/// Median of `values` (0 for an empty set).
[[nodiscard]] double median(std::vector<double> values);

/// Host speed: iterations per second of a fixed single-threaded compute loop
/// that shares no code with the program (about 20 ms). A shared host can
/// change speed by up to 1.7x within seconds (measured on a 4-vCPU KVM
/// guest); timings divided by a speed measured beside them do not.
[[nodiscard]] double host_speed();

enum class Hook : std::uint8_t { kStart, kFailure, kRecovery, kPeriodic };

/// One policy-hook call, the child of replication `rep`.
struct HookSpan {
  std::uint32_t rep = 0;
  Hook hook = Hook::kStart;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;
  /// Tasks the engine shipped on this decision's directives (filled from the
  /// engine's own trace records; 0 when the replay ran without them).
  std::uint64_t moved = 0;
};

/// One replication: the parent of every HookSpan carrying its id.
struct RepSpan {
  std::uint32_t rep = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< operator new calls inside the replication
};

/// The spans of one traced run, kept in memory until the run ends.
struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::uint32_t current_rep = 0;
  std::vector<RepSpan> reps;
  std::vector<HookSpan> hooks;
  /// Allocations the log made for itself while a replication was running
  /// (hook vector growth), so they can be taken out of the replication's count.
  std::uint64_t own_allocs = 0;

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
  }
  /// Writes one CSV line per span: kind,rep,begin_ns,end_ns,allocs,moved.
  void write_csv(const std::string& path) const;
};

/// Times every hook of the wrapped policy into a SpanLog and forwards
/// everything else, so a traced replication computes exactly what an
/// untraced one does. `drop_one_directive` makes it drop the first directive
/// it ever sees: the benchmark's self-test that the bit-identity check
/// catches a decorator that changes a decision.
class TimingPolicy final : public lbsim::core::LoadBalancingPolicy {
 public:
  TimingPolicy(lbsim::core::PolicyPtr inner, SpanLog& log, bool drop_one_directive = false);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<lbsim::core::TransferDirective> on_start(
      const lbsim::core::SystemView& view) override;
  [[nodiscard]] bool start_only() const noexcept override { return inner_->start_only(); }
  [[nodiscard]] std::vector<lbsim::core::TransferDirective> on_failure(
      int node, const lbsim::core::SystemView& view) override;
  [[nodiscard]] std::vector<lbsim::core::TransferDirective> on_recovery(
      int node, const lbsim::core::SystemView& view) override;
  [[nodiscard]] std::vector<lbsim::core::TransferDirective> on_periodic(
      const lbsim::core::SystemView& view) override;
  [[nodiscard]] bool needs_rng() const noexcept override { return inner_->needs_rng(); }
  void bind_rng(lbsim::stoch::RngStream* rng) override { inner_->bind_rng(rng); }
  [[nodiscard]] lbsim::core::PolicyPtr clone() const override;

 private:
  template <typename Call>
  std::vector<lbsim::core::TransferDirective> timed(Hook hook, Call&& call);

  lbsim::core::PolicyPtr inner_;
  SpanLog* log_;
  bool drop_pending_;
};

/// Median over rounds of the mean microseconds to construct one
/// stoch::RngStream, replaying stream ids [first, first + count) under `seed`.
[[nodiscard]] double replay_streams_us(std::uint64_t seed, std::uint64_t first,
                                       std::uint64_t count);

/// Median over rounds of the nanoseconds per event of a hold-model replay on
/// des::Simulator: `depth` pending events, each firing reschedules itself.
[[nodiscard]] double replay_hold_ns(std::size_t depth, std::uint64_t events);

/// Median over rounds of the nanoseconds per net::Network::broadcast_state
/// call, deliveries included, on the state plane `config` describes.
[[nodiscard]] double replay_broadcast_ns(const lbsim::testbed::TestbedConfig& config,
                                         std::size_t calls);

/// Median over rounds of the microseconds per net::Topology::build.
[[nodiscard]] double replay_topology_us(const lbsim::net::TopologySpec& spec, std::size_t nodes,
                                        std::size_t builds);

}  // namespace perfbench
