#include "sim/simulator.hpp"

namespace lbsim::des {

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

void Simulator::reset() {
  queue_.clear();
  now_ = 0.0;
  executed_ = 0;
}

}  // namespace lbsim::des
