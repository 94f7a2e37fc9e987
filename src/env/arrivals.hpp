#pragma once
/// \file
/// External task arrivals for open-system scenarios (the paper's Section 5
/// "dynamic workloads" future work): a finite stream of task bundles injected
/// into the running scenario by a Poisson process, or by a Markov-modulated
/// Poisson process (MMPP) tied to the shared env::Environment so arrival
/// bursts and failure storms can be driven by the same common shock.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "env/environment.hpp"
#include "sim/simulator.hpp"
#include "stochastic/rng.hpp"

namespace lbsim::env {

/// Declarative description of the arrival stream. Plain value type; the
/// default (`process == kNone`) is the paper's closed system.
struct ArrivalSpec {
  enum class Process {
    kNone,     ///< closed system, no external arrivals
    kPoisson,  ///< constant-rate Poisson arrival epochs
    kMmpp,     ///< rate selected by the environment state (needs an Environment)
  };
  enum class BatchLaw {
    kFixed,      ///< every arrival carries exactly `batch` tasks
    kGeometric,  ///< size ~ Geometric on {1, 2, ...} with mean `batch`
  };

  Process process = Process::kNone;
  /// Poisson rate (arrivals per second); ignored by kMmpp.
  double rate = 0.0;
  /// MMPP per-environment-state rates (size = environment states); a state may
  /// be 0 (no arrivals while it lasts).
  std::vector<double> state_rates;
  /// Total arrival epochs per replication. Finite so completion time stays
  /// well-defined; 0 disables the stream like kNone.
  std::size_t count = 0;
  /// Infinite-horizon stream: epochs never run out and `finished()` never
  /// turns true. Only the steady-state engine accepts such a spec (a finite
  /// replication could not declare completion); mutually exclusive with count.
  bool unbounded = false;
  /// Tasks per arrival epoch (the mean when batch_law is kGeometric).
  std::size_t batch = 1;
  BatchLaw batch_law = BatchLaw::kFixed;
  /// Node receiving each bundle; -1 draws a node uniformly per epoch.
  int target = 0;
  /// Re-run the policy's initial balancing episode after every arrival
  /// (the "LB episode at every external arrival" variant of Section 5).
  bool rebalance = false;

  [[nodiscard]] bool active() const noexcept {
    return process != Process::kNone && (count > 0 || unbounded);
  }
};

/// Checks the spec against the system it will drive. `environment` may be
/// null; kMmpp requires it and state_rates sized to its state count. Throws
/// via LBSIM_REQUIRE.
void validate(const ArrivalSpec& spec, std::size_t node_count,
              const EnvironmentSpec* environment);

/// Draws one batch size according to spec.batch / spec.batch_law.
[[nodiscard]] std::size_t sample_batch_size(const ArrivalSpec& spec, stoch::RngStream& rng);

/// Runtime driver: samples inter-arrival gaps from its private RNG stream and
/// hands each epoch to the scenario through the sink. For kMmpp the scenario
/// forwards environment transitions to on_environment_transition(), which
/// re-arms the pending gap at the new state's rate — exact modulation by the
/// memorylessness of the exponential gap.
class ArrivalProcess {
 public:
  /// One arrival epoch: inject `tasks` onto `node`; `last` marks the final
  /// epoch of the stream (completion may be declared once it is processed).
  using Sink = std::function<void(std::size_t node, std::size_t tasks, bool last)>;

  /// `environment` is required (and must outlive this) iff spec is kMmpp.
  ArrivalProcess(des::Simulator& sim, ArrivalSpec spec, std::size_t node_count,
                 const Environment* environment, stoch::RngStream& rng);

  ArrivalProcess(const ArrivalProcess&) = delete;
  ArrivalProcess& operator=(const ArrivalProcess&) = delete;

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Arms the first gap (no-op when the spec is inactive).
  void start();

  /// Re-arms the pending gap at the (possibly changed) current rate.
  void on_environment_transition();

  /// Epochs fired so far.
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }
  /// True once every epoch of the stream has fired (or the spec is inactive).
  /// An unbounded stream never finishes.
  [[nodiscard]] bool finished() const noexcept {
    if (spec_.unbounded) return false;
    return epochs_ >= spec_.count || !spec_.active();
  }

 private:
  [[nodiscard]] double current_rate() const;
  void arm();
  void fire();

  des::Simulator& sim_;
  ArrivalSpec spec_;
  std::size_t node_count_;
  const Environment* environment_;
  stoch::RngStream& rng_;
  Sink sink_;
  des::EventId pending_;
  bool armed_ = false;
  std::uint64_t epochs_ = 0;
};

}  // namespace lbsim::env
