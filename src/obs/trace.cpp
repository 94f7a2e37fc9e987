#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>

#include "util/error.hpp"

namespace lbsim::obs {

namespace {

/// Process-wide recycler for trace chunks. glibc returns freed 64 KiB blocks
/// to the OS (heap trim / mmap), so naively freeing arenas between
/// replications makes every later chunk arrive on cold pages — page-fault
/// churn that costs more than record emission itself. Recycling keeps the
/// pages warm; the pool is bounded so one huge trace cannot pin its
/// high-water mark forever.
class ChunkPool {
 public:
  static ChunkPool& instance() {
    static ChunkPool pool;
    return pool;
  }

  std::unique_ptr<Record[]> acquire(std::size_t capacity) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      std::vector<std::unique_ptr<Record[]>>* shelf = shelf_for(capacity);
      if (shelf != nullptr && !shelf->empty()) {
        std::unique_ptr<Record[]> data = std::move(shelf->back());
        shelf->pop_back();
        return data;
      }
    }
    return std::make_unique<Record[]>(capacity);
  }

  void release(std::unique_ptr<Record[]> data, std::size_t capacity) noexcept {
    if (data == nullptr) return;
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::unique_ptr<Record[]>>* shelf = shelf_for(capacity);
    const std::size_t cap_chunks =
        capacity == TraceBuffer::kFirstChunkRecords ? kMaxFirstChunks : kMaxFullChunks;
    if (shelf != nullptr && shelf->size() < cap_chunks) shelf->push_back(std::move(data));
    // Otherwise the unique_ptr frees it: odd sizes and overflow are not kept.
  }

 private:
  /// Bounds: 512 full chunks = 32 MiB retained at most.
  static constexpr std::size_t kMaxFirstChunks = 64;
  static constexpr std::size_t kMaxFullChunks = 512;

  std::vector<std::unique_ptr<Record[]>>* shelf_for(std::size_t capacity) noexcept {
    if (capacity == TraceBuffer::kFirstChunkRecords) return &first_;
    if (capacity == TraceBuffer::kChunkRecords) return &full_;
    return nullptr;
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Record[]>> first_;
  std::vector<std::unique_ptr<Record[]>> full_;
};

constexpr std::string_view kKindNames[kKindCount] = {
    "rep_begin",       "task_arrive",     "service_start", "task_complete",
    "transfer_send",   "transfer_deliver", "fail",          "recover",
    "env_transition",  "channel_state",   "state_packet_lost",
    "policy_decision", "inject",
};
}  // namespace

std::string_view kind_name(Kind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return i < kKindCount ? kKindNames[i] : std::string_view{"unknown"};
}

bool parse_kind(std::string_view name, Kind& out) noexcept {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    if (kKindNames[i] == name) {
      out = static_cast<Kind>(i);
      return true;
    }
  }
  return false;
}

TraceBuffer::~TraceBuffer() { release_chunks(); }

TraceBuffer& TraceBuffer::operator=(TraceBuffer&& other) noexcept {
  if (this != &other) {
    release_chunks();
    chunks_ = std::move(other.chunks_);
    cursor_ = other.cursor_;
    end_ = other.end_;
    size_ = other.size_;
    other.chunks_.clear();
    other.cursor_ = other.end_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void TraceBuffer::release_chunks() noexcept {
  for (Chunk& chunk : chunks_) {
    ChunkPool::instance().release(std::move(chunk.data), chunk.capacity);
  }
  chunks_.clear();
  cursor_ = end_ = nullptr;
  size_ = 0;
}

std::size_t TraceBuffer::count(Kind kind) const noexcept {
  std::size_t n = 0;
  const auto want = static_cast<std::uint32_t>(kind);
  for_each([&](const Record& r) { n += (r.kind == want) ? 1 : 0; });
  return n;
}

std::vector<Record> TraceBuffer::to_vector() const {
  std::vector<Record> out;
  out.reserve(size_);
  for_each([&](const Record& r) { out.push_back(r); });
  return out;
}

void TraceBuffer::append_all(const TraceBuffer& other) {
  // Chunk-wise bulk copy: one capacity check and one memcpy per span instead
  // of per record, so folding a replication buffer moves at memcpy speed.
  for (std::size_t c = 0; c < other.chunks_.size(); ++c) {
    const Record* src = other.chunks_[c].data.get();
    const Record* src_end = (c + 1 == other.chunks_.size())
                                ? other.cursor_
                                : src + other.chunks_[c].used;
    while (src != src_end) {
      if (cursor_ == end_) grow();
      const std::size_t span =
          std::min(static_cast<std::size_t>(src_end - src),
                   static_cast<std::size_t>(end_ - cursor_));
      std::memcpy(cursor_, src, span * sizeof(Record));
      cursor_ += span;
      src += span;
      size_ += span;
    }
  }
}

void TraceBuffer::absorb(TraceBuffer&& other) {
  if (other.size_ == 0) {
    other.clear();
    return;
  }
  // Finalize both live chunks' fill marks, then steal other's chunk list.
  if (!chunks_.empty()) {
    chunks_.back().used = static_cast<std::size_t>(cursor_ - chunks_.back().data.get());
  }
  other.chunks_.back().used =
      static_cast<std::size_t>(other.cursor_ - other.chunks_.back().data.get());
  for (Chunk& chunk : other.chunks_) chunks_.push_back(std::move(chunk));
  cursor_ = other.cursor_;
  end_ = other.end_;
  size_ += other.size_;
  other.chunks_.clear();
  other.cursor_ = other.end_ = nullptr;
  other.size_ = 0;
}

void TraceBuffer::clear() noexcept {
  // Keep only the first chunk so a reused buffer stays cheap but does not
  // pin a long tail of arena memory from an earlier, larger run; the tail
  // goes back to the pool, not to the allocator.
  while (chunks_.size() > 1) {
    ChunkPool::instance().release(std::move(chunks_.back().data), chunks_.back().capacity);
    chunks_.pop_back();
  }
  if (!chunks_.empty()) {
    cursor_ = chunks_.front().data.get();
    end_ = cursor_ + chunks_.front().capacity;
  } else {
    cursor_ = end_ = nullptr;
  }
  size_ = 0;
}

void TraceBuffer::grow() {
  // A full live chunk retires with its fill mark set before a new one opens.
  if (!chunks_.empty()) chunks_.back().used = chunks_.back().capacity;
  const std::size_t cap = chunks_.empty() ? kFirstChunkRecords : kChunkRecords;
  Chunk chunk;
  chunk.data = ChunkPool::instance().acquire(cap);
  chunk.capacity = cap;
  cursor_ = chunk.data.get();
  end_ = cursor_ + cap;
  chunks_.push_back(std::move(chunk));
}

std::vector<std::vector<double>> queue_lengths_at(const TraceBuffer& events, std::size_t nodes,
                                                  const std::vector<double>& times) {
  LBSIM_REQUIRE(std::is_sorted(times.begin(), times.end()),
                "queue sample times must be nondecreasing");
  std::vector<std::vector<double>> out(nodes, std::vector<double>(times.size(), 0.0));
  std::vector<std::int64_t> queue(nodes, 0);
  std::size_t next = 0;  // the first sample not yet taken
  const auto take = [&] {
    for (std::size_t i = 0; i < nodes; ++i) out[i][next] = static_cast<double>(queue[i]);
    ++next;
  };
  double last = -std::numeric_limits<double>::infinity();
  events.for_each([&](const Record& r) {
    LBSIM_REQUIRE(r.time >= last, "record at t=" << r.time << " follows one at t=" << last
                                                 << ": not one replication's trace");
    last = r.time;
    std::int64_t delta = 0;
    switch (r.kind_enum()) {
      case Kind::kTaskArrive:
        delta = r.count;
        break;
      case Kind::kTransferSend:
      case Kind::kTaskComplete:
        delta = -static_cast<std::int64_t>(r.count);
        break;
      default:
        return;
    }
    LBSIM_REQUIRE(r.node >= 0 && static_cast<std::size_t>(r.node) < nodes,
                  kind_name(r.kind_enum()) << " record on node " << r.node << " of " << nodes);
    while (next < times.size() && times[next] < r.time) take();
    queue[static_cast<std::size_t>(r.node)] += delta;
  });
  while (next < times.size()) take();
  return out;
}

}  // namespace lbsim::obs
