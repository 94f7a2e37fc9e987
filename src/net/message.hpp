#pragma once
/// \file
/// Wire messages of the emulated communication layer (Section 3 of the paper):
/// the small UDP state-information packets.

#include <cstddef>
#include <cstdint>

namespace lbsim::net {

/// Queue/capability advertisement exchanged over UDP. The paper reports packet
/// sizes between 20 and 34 bytes depending on the policy fields present.
struct StateInfoPacket {
  int sender = 0;
  double timestamp = 0.0;       ///< emission time (virtual seconds)
  std::uint32_t queue_size = 0;
  double processing_rate = 0.0;  ///< tasks per second
  bool node_up = true;
  /// Optional policy-specific payload (e.g. LBP-2 advertises its excess load).
  double policy_payload = 0.0;
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
