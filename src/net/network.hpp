#pragma once
/// \file
/// The testbed's emulated communication layer between n nodes: the delay law
/// every data bundle samples, scaled by the state channel's current data
/// multiplier, and a UDP-like state-information plane with fixed small latency
/// and optional loss. The bundles themselves travel through the replication
/// workspace's pooled bundle slots (mc::run_testbed_replication).

#include <functional>
#include <memory>

#include "net/channel.hpp"
#include "net/delay_model.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace lbsim::net {

class Network {
 public:
  struct Config {
    /// Delay law of every data bundle.
    TransferDelayModelPtr data_delay;
    /// One-way latency of a state packet, seconds (UDP datagrams are small).
    double state_latency = 1e-3;
    /// Probability that a state packet is lost (UDP is unreliable). 1.0 is a
    /// legitimate boundary: a total state-plane blackout.
    double state_loss_probability = 0.0;
    /// Optional k-state Markov channel. When disabled (states == 0) the state
    /// plane behaves as i.i.d. Bernoulli(state_loss_probability) at fixed
    /// latency — bit-identical to the historical behaviour.
    ChannelSpec channel;
  };

  using StateHandler = std::function<void(int receiver, const StateInfoPacket&)>;

  /// A network of `node_count` >= 2 nodes, ready to use. Data delays draw
  /// from `rng`; every state-plane decision (channel stepping and loss) draws
  /// from the dedicated `state_rng` so sweeping channel or loss axes never
  /// perturbs data-plane stream consumption (CRN-safe). The kernel and both
  /// streams must outlive the network.
  Network(des::Simulator& sim, std::size_t node_count, Config config, stoch::RngStream& rng,
          stoch::RngStream& state_rng);

  /// A workspace network: it validates and keeps `config`, and is unusable
  /// until reset() seats it.
  Network(std::size_t node_count, Config config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Returns the network to the state the ready-to-use constructor leaves,
  /// re-seated on `sim`, `rng` and `state_rng`: channel in its initial state
  /// with no floor, zero counters and no trace. Anything it had scheduled must
  /// already be gone (des::Simulator::reset).
  void reset(des::Simulator& sim, stoch::RngStream& rng, stoch::RngStream& state_rng);

  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  /// Samples one bundle's delay: the data law for `tasks` tasks on the data
  /// stream, scaled by the channel's current data multiplier.
  [[nodiscard]] double sample_data_delay(std::size_t tasks);

  /// Sends `packet` to every other node. Each copy steps the channel once and
  /// suffers that state's loss probability; survivors arrive after
  /// `state_latency` scaled by the state's latency multiplier. Returns the
  /// number of copies actually delivered (scheduled).
  std::size_t broadcast_state(const StateInfoPacket& packet, StateHandler on_state);

  /// Environment-coupling hook: forces the channel into (at least) `state`.
  void set_channel_floor(std::size_t state) noexcept { channel_.set_floor_state(state); }

  /// The shared state-plane channel (read-mostly; tests inspect its state).
  [[nodiscard]] const ChannelModel& channel() const noexcept { return channel_; }

  /// Count of state packets dropped by the loss process.
  [[nodiscard]] std::uint64_t state_packets_lost() const noexcept { return state_lost_; }
  [[nodiscard]] std::uint64_t state_bytes_sent() const noexcept { return state_bytes_; }

  /// Optional structured event sink: state-packet drops (kStatePacketLost,
  /// node = sender, peer = intended receiver) and state-plane channel jumps
  /// (kChannelState, count = new effective state). Recording reads the
  /// channel after the unconditional per-copy step — it consumes no RNG draws
  /// of its own and never changes behaviour. Pass nullptr to stop.
  void set_event_trace(obs::TraceBuffer* trace) noexcept { event_trace_ = trace; }

 private:
  des::Simulator* sim_ = nullptr;
  std::size_t node_count_;
  Config config_;
  stoch::RngStream* rng_ = nullptr;
  stoch::RngStream* state_rng_ = nullptr;
  ChannelModel channel_;
  std::uint64_t state_lost_ = 0;
  std::uint64_t state_bytes_ = 0;
  obs::TraceBuffer* event_trace_ = nullptr;
};

}  // namespace lbsim::net
