#include "sim/simulator.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lbsim::des {

EventId Simulator::schedule_in(double delay, EventQueue::Callback cb) {
  LBSIM_REQUIRE(std::isfinite(delay) && delay >= 0.0, "delay " << delay);
  return queue_.push(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(double time, EventQueue::Callback cb) {
  LBSIM_REQUIRE(time >= now_, "schedule_at(" << time << ") is in the past (now=" << now_ << ")");
  return queue_.push(time, std::move(cb));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Entry entry = queue_.pop();
  LBSIM_CHECK(entry.time >= now_, "event time went backwards");
  now_ = entry.time;
  ++executed_;
  entry.callback();
  return true;
}

double Simulator::run() {
  while (step()) {
  }
  return now_;
}

double Simulator::run_until(double t_end) {
  LBSIM_REQUIRE(t_end >= now_, "run_until(" << t_end << ") is in the past");
  while (!queue_.empty() && queue_.next_time() <= t_end) step();
  now_ = t_end;
  return now_;
}

double Simulator::run_while_pending(const std::function<bool()>& stop) {
  LBSIM_REQUIRE(stop != nullptr, "null stop predicate");
  while (!stop() && step()) {
  }
  return now_;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0.0;
  executed_ = 0;
}

}  // namespace lbsim::des
