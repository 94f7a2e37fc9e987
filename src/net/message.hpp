#pragma once
/// \file
/// Wire messages of the emulated communication layer (Section 3 of the paper):
/// the small UDP state-information packets.

#include <cstdint>

namespace lbsim::net {

/// Queue/capability advertisement exchanged over UDP.
///
/// The fields are ordered 8-byte first, so the struct packs into 32 bytes
/// instead of the 40 that interleaving them with the 4- and 1-byte fields pads
/// to: every state-packet copy in flight carries one by value inside its
/// delivery event (net::Network::broadcast_state).
struct StateInfoPacket {
  double timestamp = 0.0;        ///< emission time (virtual seconds)
  double processing_rate = 0.0;  ///< tasks per second
  int sender = 0;
  std::uint32_t queue_size = 0;
  bool node_up = true;
};

}  // namespace lbsim::net
