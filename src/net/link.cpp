#include "net/link.hpp"

#include <memory>

#include "util/error.hpp"

namespace lbsim::net {

Link::Link(des::Simulator& sim, int from, int to, TransferDelayModelPtr delay,
           stoch::RngStream& rng)
    : sim_(sim), from_(from), to_(to), delay_(std::move(delay)), rng_(rng) {
  LBSIM_REQUIRE(delay_ != nullptr, "link needs a delay model");
  LBSIM_REQUIRE(from != to, "self-link from node " << from);
}

double Link::send(node::TaskBatch tasks, DeliveryHandler on_delivery, double delay_scale) {
  LBSIM_REQUIRE(!tasks.empty(), "cannot send an empty bundle");
  LBSIM_REQUIRE(on_delivery != nullptr, "null delivery handler");
  LBSIM_REQUIRE(delay_scale > 0.0, "delay_scale=" << delay_scale);
  const std::size_t n = tasks.size();
  const double delay = delay_->sample(n, rng_) * delay_scale;

  // The event callback is move-only (des::SmallCallback), so it can own the
  // transfer outright — no shared_ptr control block per bundle.
  auto transfer = std::make_unique<DataTransfer>();
  transfer->from = from_;
  transfer->to = to_;
  transfer->sent_at = sim_.now();
  transfer->tasks = std::move(tasks);

  in_flight_bundles_ += 1;
  in_flight_tasks_ += n;
  bytes_sent_ += transfer->wire_bytes();

  sim_.schedule_in(
      delay,
      [this, transfer = std::move(transfer), handler = std::move(on_delivery), n]() mutable {
        in_flight_bundles_ -= 1;
        in_flight_tasks_ -= n;
        delivered_bundles_ += 1;
        delivered_tasks_ += n;
        handler(std::move(*transfer));
      });
  return delay;
}

}  // namespace lbsim::net
