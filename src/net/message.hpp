#pragma once
/// \file
/// Wire messages of the emulated communication layer (Section 3 of the paper):
/// the small UDP state-information packets.

#include <cstddef>
#include <cstdint>

namespace lbsim::net {

/// Queue/capability advertisement exchanged over UDP. The paper reports packet
/// sizes between 20 and 34 bytes depending on the policy fields present.
///
/// The fields are ordered 8-byte first, so the struct packs into 40 bytes
/// instead of the 56 that interleaving them with the 4- and 1-byte fields pads
/// to: every state-packet copy in flight carries one by value inside its
/// delivery event (net::Network::broadcast_state).
struct StateInfoPacket {
  double timestamp = 0.0;        ///< emission time (virtual seconds)
  double processing_rate = 0.0;  ///< tasks per second
  /// Optional policy-specific payload (e.g. LBP-2 advertises its excess load).
  double policy_payload = 0.0;
  int sender = 0;
  std::uint32_t queue_size = 0;
  bool node_up = true;
  bool has_policy_payload = false;

  /// Emulated wire size in bytes: 20-byte base record plus optional fields,
  /// matching the 20-34 byte range reported in the paper.
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    std::size_t bytes = 20;              // sender, timestamp, queue, rate
    bytes += 2;                          // node_up + version tag
    if (has_policy_payload) bytes += 12; // payload + descriptor
    return bytes;
  }
};

}  // namespace lbsim::net
