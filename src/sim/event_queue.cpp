#include "sim/event_queue.hpp"

namespace lbsim::des {

void EventQueue::grow_slab() {
  LBSIM_CHECK(slots_.size() < kNilSlot, "event slab exhausted");
  slots_.emplace_back();
  free_head_ = static_cast<std::uint32_t>(slots_.size() - 1);
}

bool EventQueue::cancel(EventId id) noexcept {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  if (slots_[id.slot_].serial != id.serial_) return false;  // already fired/cancelled
  release_slot(id.slot_);
  --live_;
  ++stats_.cancelled;
  // The heap record stays behind as a corpse; rebuild once corpses dominate.
  if (heap_.size() >= kCompactMin && heap_.size() > 2 * live_) compact();
  return true;
}

void EventQueue::compact() noexcept {
  ++stats_.compactions;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapItem& item) { return is_dead(item); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::clear() noexcept {
  heap_.clear();
  slots_.clear();  // capacity (the slab) is retained for the next run
  free_head_ = kNilSlot;
  live_ = 0;
  // next_serial_ is never reset: a stale EventId must not alias a new event.
}

}  // namespace lbsim::des
