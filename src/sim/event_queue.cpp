#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lbsim::des {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  LBSIM_CHECK(slots_.size() < kNilSlot, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.callback.reset();
  s.serial = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId EventQueue::push(double time, Callback cb) {
  LBSIM_REQUIRE(std::isfinite(time) && time >= 0.0, "event time " << time);
  LBSIM_REQUIRE(static_cast<bool>(cb), "null event callback");
  const std::uint64_t serial = next_serial_++;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].callback = std::move(cb);
  slots_[slot].serial = serial;
  heap_.push_back(HeapItem{time, serial, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  ++stats_.scheduled;
  if (live_ > stats_.max_depth) stats_.max_depth = live_;
  return EventId{serial, slot};
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
  std::make_heap(heap_.begin(), heap_.end(), later);
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && is_dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

double EventQueue::next_time() {
  LBSIM_REQUIRE(!empty(), "next_time on empty queue");
  drop_dead_top();
  return heap_.front().time;
}

EventQueue::Entry EventQueue::pop() {
  LBSIM_REQUIRE(!empty(), "pop on empty queue");
  drop_dead_top();
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const HeapItem item = heap_.back();
  heap_.pop_back();
  Entry out{item.time, item.serial, std::move(slots_[item.slot].callback)};
  release_slot(item.slot);
  --live_;
  ++stats_.popped;
  return out;
}

void EventQueue::clear() noexcept {
  heap_.clear();
  slots_.clear();  // capacity (the slab) is retained for the next run
  free_head_ = kNilSlot;
  live_ = 0;
  // next_serial_ is never reset: a stale EventId must not alias a new event.
}

}  // namespace lbsim::des
