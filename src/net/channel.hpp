#pragma once
/// \file
/// k-state Markov channel for the UDP-like state plane: per-state loss
/// probability, per-state latency multiplier, and geometric state dwell times
/// measured in packets (the CDF-of-burst-length idiom). Gilbert-Elliott is the
/// k=2 special case; k=1 collapses to i.i.d. Bernoulli loss, and the default
/// (states == 0) means "no channel configured" so existing scenarios keep the
/// plain fixed-latency / Bernoulli behaviour bit-identically.

#include <cstddef>
#include <vector>

#include "stochastic/rng.hpp"

namespace lbsim::net {

/// Declarative channel description, sweepable from the CLI (`channel.*` keys).
/// All per-state vectors are indexed by channel state; state 0 is conventionally
/// the "good" state. `validate(spec)` enforces the invariants listed per field.
struct ChannelSpec {
  /// Number of Markov states. 0 disables the channel entirely (the network
  /// falls back to its i.i.d. Bernoulli `state_loss_probability`).
  std::size_t states = 0;
  /// Per-state packet loss probability, in [0, 1] (1 = blackout state).
  std::vector<double> loss;
  /// Per-state mean burst length in packets (geometric dwell, >= 1). A mean of
  /// 1 means the channel re-draws its state every packet.
  std::vector<double> mean_burst;
  /// Per-state multiplier applied to the base state-packet latency (>= 0).
  std::vector<double> latency_mult;
  /// Per-state multiplier applied to sampled data-link delays (> 0).
  std::vector<double> data_mult;
  /// Couple the channel to the environment CTMC: the env state imposes a floor
  /// on the channel state, so failure storms force the channel into (at least)
  /// the proportionally-bad state.
  bool env_coupled = false;

  [[nodiscard]] bool enabled() const noexcept { return states > 0; }
};

/// Throws util::SimError if the spec is inconsistent. Vectors may be shorter
/// than `states`; missing entries are cycled from the given ones (an empty
/// vector takes the documented default: loss 0, burst 1, multipliers 1).
void validate(const ChannelSpec& spec);

/// Outcome of pushing one packet through the channel.
struct ChannelHop {
  bool lost = false;
  double latency_mult = 1.0;
};

/// Runtime channel: one instance models the shared WLAN medium, stepped once
/// per state-packet copy. Every step draws EXACTLY three uniforms (dwell,
/// jump target, loss) from the caller's stream regardless of configuration,
/// so sweeping any channel axis never changes stream consumption (CRN-safe).
class ChannelModel {
 public:
  /// `spec` may be disabled (states == 0); then the channel behaves as a
  /// single always-good state with loss `fallback_loss`.
  ChannelModel(const ChannelSpec& spec, double fallback_loss);

  /// Returns the chain to the state the constructor leaves: state 0, no floor.
  void reset() noexcept {
    state_ = 0;
    floor_ = 0;
  }

  /// Advances the state machine by one packet and samples its fate.
  ChannelHop step(stoch::RngStream& rng);

  /// Multiplier applied to data-link delays in the current effective state.
  [[nodiscard]] double data_multiplier() const noexcept {
    return data_mult_[effective_state()];
  }

  /// Environment-coupling hook: clamps the effective state to at least
  /// `state` (clipped to the last state) until lowered again.
  void set_floor_state(std::size_t state) noexcept;

  [[nodiscard]] std::size_t state_count() const noexcept { return loss_.size(); }
  [[nodiscard]] std::size_t effective_state() const noexcept {
    return state_ > floor_ ? state_ : floor_;
  }

 private:
  std::vector<double> loss_;
  std::vector<double> exit_prob_;  // 1 / mean_burst per state
  std::vector<double> latency_mult_;
  std::vector<double> data_mult_;
  std::size_t state_ = 0;
  std::size_t floor_ = 0;
};

}  // namespace lbsim::net
