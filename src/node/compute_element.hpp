#pragma once
/// \file
/// A computational element (CE): FIFO task queue + service process + up/down
/// state machine with checkpoint-resume.
///
/// Semantics follow Section 3 of the paper: every CE carries a backup system
/// saving the context of the running application, so a failure freezes the
/// in-service task (no work lost) and recovery resumes it. Under exponential
/// service times this coupling is distributionally identical to resampling,
/// which is what the regeneration analysis assumes; under the testbed's
/// size-based service times it models checkpoint-resume faithfully.

#include <functional>
#include <optional>

#include "node/block_pool.hpp"
#include "node/task.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "stochastic/rng.hpp"

namespace lbsim::node {

class ComputeElement {
 public:
  using CompletionHandler = std::function<void(const Task&)>;

  /// A CE whose queue draws blocks from `pool` (which must outlive it); it is
  /// unusable until reset() seats it.
  explicit ComputeElement(BlockPool& pool);

  ComputeElement(const ComputeElement&) = delete;
  ComputeElement& operator=(const ComputeElement&) = delete;

  /// Seats the CE on `sim`, `id` and `rng` (the kernel and the stream must
  /// outlive its use) in its initial state: an empty queue (its capacity is
  /// kept), up, idle, and no handler, trace or hot cells bound.
  /// The CE serves at `service_rate` (> 0) tasks per second: the abstract
  /// model draws each service time Exp(service_rate) on `rng` and ignores the
  /// task; a `size_based` CE (the testbed) serves a task in task.size /
  /// service_rate and draws nothing. Anything the CE had scheduled must
  /// already be gone (des::Simulator::reset).
  void reset(des::Simulator& sim, int id, double service_rate, bool size_based,
             stoch::RngStream& rng);

  /// Drops every queued task (their blocks go back to the queue's pool).
  void clear_queue() noexcept { queue_.clear(); }

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] bool is_up() const noexcept { return up_; }

  /// Tasks pending, including the one in service.
  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }

  /// Appends every task of `batch`, in order, leaves `batch` empty, and starts
  /// service if possible. Works while down (tasks wait).
  void enqueue_batch(TaskChain& batch);

  /// Appends `count` unit-size tasks with ids `first_id`, `first_id`+1, ...
  /// originating here, stamped with the current time, without materialising
  /// them as a batch first.
  void enqueue_units(std::size_t count, std::uint64_t first_id);

  /// Removes up to `count` tasks from the *back* of the queue (most recently
  /// queued work leaves first; the in-service task is only taken if the request
  /// drains the whole queue, in which case the service is aborted), appends
  /// them to `out` in extraction order, and returns the number taken.
  std::size_t extract_tasks(std::size_t count, TaskChain& out);

  /// Transitions to the down state, freezing any in-service task. No-op if down.
  void fail();

  /// Transitions to the up state, resuming the frozen task if any. No-op if up.
  void recover();

  /// Invoked after each task completion.
  void set_completion_handler(CompletionHandler handler) { on_complete_ = std::move(handler); }

  /// Optional structured event sink: task arrivals (kTaskArrive, count =
  /// tasks added), service starts (kServiceStart, payload = drawn duration)
  /// and completions (kTaskComplete, payload = task id). Recording consumes
  /// no RNG draws and never changes behaviour; pass nullptr to stop.
  void set_event_trace(obs::TraceBuffer* trace) noexcept { event_trace_ = trace; }

  /// Binds externally owned hot-state cells — the scenario's
  /// structure-of-arrays mirror. After binding, *queue_len tracks
  /// queue_length() and *up tracks is_up() on every transition, so policy
  /// scans read two packed arrays instead of chasing one heap allocation per
  /// node. Both cells must outlive the CE; pass nullptrs to unbind.
  void bind_hot_cells(std::uint32_t* queue_len, std::uint8_t* up) noexcept;

 private:
  void maybe_start_service();
  void finish_current_task();
  void record_queue() const;

  des::Simulator* sim_ = nullptr;
  int id_ = 0;
  double service_rate_ = 1.0;
  bool size_based_ = false;
  stoch::RngStream* rng_ = nullptr;

  TaskQueue queue_;
  bool up_ = true;
  bool serving_ = false;
  des::EventId service_event_;
  double service_started_at_ = 0.0;
  double current_service_duration_ = 0.0;
  /// Remaining service time of the frozen head-of-queue task, if a failure
  /// interrupted it.
  std::optional<double> frozen_remaining_;

  CompletionHandler on_complete_;
  obs::TraceBuffer* event_trace_ = nullptr;
  /// Hot-state mirror cells (see bind_hot_cells); null = no mirror.
  std::uint32_t* hot_queue_len_ = nullptr;
  std::uint8_t* hot_up_ = nullptr;
};

}  // namespace lbsim::node
