#include "node/compute_element.hpp"

#include "util/error.hpp"

namespace lbsim::node {

ComputeElement::ComputeElement(BlockPool& pool) : queue_(BlockAllocator<Task>(&pool)) {}

void ComputeElement::reset(des::Simulator& sim, int id, ServiceTimeFn service_time,
                           stoch::RngStream& rng) {
  LBSIM_REQUIRE(service_time != nullptr, "CE " << id << " needs a service-time function");
  sim_ = &sim;
  id_ = id;
  service_time_ = std::move(service_time);
  rng_ = &rng;
  queue_.clear();
  up_ = true;
  serving_ = false;
  service_event_ = des::EventId{};
  service_started_at_ = 0.0;
  current_service_duration_ = 0.0;
  frozen_remaining_.reset();
  went_down_at_ = 0.0;
  on_complete_ = nullptr;
  queue_trace_ = nullptr;
  event_trace_ = nullptr;
  hot_queue_len_ = nullptr;
  hot_up_ = nullptr;
  stats_ = CeStats{};
}

void ComputeElement::record_queue() const {
  if (hot_queue_len_ != nullptr) {
    *hot_queue_len_ = static_cast<std::uint32_t>(queue_.size());
  }
  if (queue_trace_ != nullptr) {
    queue_trace_->record(sim_->now(), static_cast<double>(queue_.size()));
  }
}

void ComputeElement::set_queue_trace(des::TimeSeries* trace) {
  queue_trace_ = trace;
  record_queue();
}

void ComputeElement::bind_hot_cells(std::uint32_t* queue_len, std::uint8_t* up) noexcept {
  hot_queue_len_ = queue_len;
  hot_up_ = up;
  if (hot_queue_len_ != nullptr) {
    *hot_queue_len_ = static_cast<std::uint32_t>(queue_.size());
  }
  if (hot_up_ != nullptr) *hot_up_ = up_ ? 1 : 0;
}

void ComputeElement::enqueue_batch(TaskChain& batch) {
  if (batch.empty()) return;
  for (const Task& task : batch) {
    queue_.push_back(task);
  }
  stats_.tasks_received += batch.size();
  if (event_trace_ != nullptr) {
    event_trace_->emit(sim_->now(), obs::Kind::kTaskArrive, id_, -1,
                       static_cast<std::uint32_t>(batch.size()));
  }
  record_queue();
  maybe_start_service();
  batch.clear();
}

void ComputeElement::enqueue_units(std::size_t count, std::uint64_t first_id) {
  if (count == 0) return;
  for (std::size_t i = 0; i < count; ++i) {
    queue_.push_back(Task{first_id + i, 1.0, id_, sim_->now()});
  }
  stats_.tasks_received += count;
  if (event_trace_ != nullptr) {
    event_trace_->emit(sim_->now(), obs::Kind::kTaskArrive, id_, -1,
                       static_cast<std::uint32_t>(count), first_id);
  }
  record_queue();
  maybe_start_service();
}

std::size_t ComputeElement::extract_tasks(std::size_t count, TaskChain& out) {
  const std::size_t take = std::min(count, queue_.size());
  if (take == 0) return 0;
  // Abort the running/frozen service only when the head task itself leaves.
  if (take == queue_.size()) {
    if (serving_) {
      sim_->cancel(service_event_);
      serving_ = false;
    }
    frozen_remaining_.reset();
  }
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(queue_.back());
    queue_.pop_back();
  }
  stats_.tasks_extracted += take;
  record_queue();
  return take;
}

void ComputeElement::maybe_start_service() {
  if (!up_ || serving_ || queue_.empty()) return;
  if (frozen_remaining_.has_value()) {
    current_service_duration_ = *frozen_remaining_;
    frozen_remaining_.reset();
  } else {
    current_service_duration_ = service_time_(queue_.front(), *rng_);
    LBSIM_CHECK(current_service_duration_ >= 0.0, "negative service time");
  }
  serving_ = true;
  service_started_at_ = sim_->now();
  if (event_trace_ != nullptr) {
    event_trace_->emit(sim_->now(), obs::Kind::kServiceStart, id_, -1, 1,
                       obs::Record::pack_f64(current_service_duration_));
  }
  service_event_ =
      sim_->schedule_in(current_service_duration_, [this] { finish_current_task(); });
}

void ComputeElement::finish_current_task() {
  LBSIM_CHECK(serving_ && !queue_.empty(), "completion without a task in service");
  serving_ = false;
  const Task done = queue_.front();
  queue_.pop_front();
  ++stats_.tasks_completed;
  stats_.service_time_done += current_service_duration_;
  if (event_trace_ != nullptr) {
    event_trace_->emit(sim_->now(), obs::Kind::kTaskComplete, id_, -1, 1, done.id);
  }
  record_queue();
  if (on_complete_) on_complete_(done);
  maybe_start_service();
}

void ComputeElement::fail() {
  if (!up_) return;
  up_ = false;
  if (hot_up_ != nullptr) *hot_up_ = 0;
  ++stats_.failures;
  went_down_at_ = sim_->now();
  if (serving_) {
    sim_->cancel(service_event_);
    serving_ = false;
    const double elapsed = sim_->now() - service_started_at_;
    frozen_remaining_ = std::max(0.0, current_service_duration_ - elapsed);
  }
}

void ComputeElement::recover() {
  if (up_) return;
  up_ = true;
  if (hot_up_ != nullptr) *hot_up_ = 1;
  ++stats_.recoveries;
  stats_.down_time += sim_->now() - went_down_at_;
  maybe_start_service();
}

}  // namespace lbsim::node
