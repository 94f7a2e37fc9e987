#pragma once
/// \file
/// The unit of workload. The paper defines a task as "the smallest indivisible
/// unit of workload" (one matrix row multiplied by a static matrix); a load is a
/// collection of tasks.

#include <cstdint>
#include <vector>

namespace lbsim::node {

struct Task {
  /// Unique within a simulation run.
  std::uint64_t id = 0;
  /// Abstract work size (e.g. row length x precision); 1.0 for the unit-size
  /// tasks of the analytical model.
  double size = 1.0;
  /// Node where the task entered the system (for migration accounting).
  int origin = 0;
  /// Virtual time the task entered the system (stamped at enqueue; preserved
  /// across migrations, so completion - arrival is the system sojourn time).
  double arrival_time = 0.0;
};

using TaskBatch = std::vector<Task>;

}  // namespace lbsim::node
