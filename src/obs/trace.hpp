#pragma once
/// \file
/// Structured binary tracing: fixed 32-byte POD records appended into a
/// chunked arena. The sink is allocation-free per event (a new chunk is
/// amortised over thousands of appends), consumes zero RNG draws, and is
/// bit-identity-neutral — recording must never change what a run computes.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lbsim::obs {

/// Event taxonomy. Values are stable (they appear in exported traces);
/// append only.
enum class Kind : std::uint32_t {
  kRepBegin = 0,       ///< replication boundary marker (payload = replication index)
  kTaskArrive = 1,     ///< task enqueued on a node (count = tasks added)
  kServiceStart = 2,   ///< node began serving a task
  kTaskComplete = 3,   ///< task finished service
  kTransferSend = 4,   ///< bundle handed to a link (node -> peer, count = tasks)
  kTransferDeliver = 5,///< bundle arrived at its destination (node -> peer, count = tasks)
  kFail = 6,           ///< node went down
  kRecover = 7,        ///< node came back up
  kEnvTransition = 8,  ///< environment CTMC jump (node = from state, peer = to state)
  kChannelState = 9,   ///< state-plane channel changed state (node = link owner, count = new state)
  kStatePacketLost = 10, ///< state packet dropped on the exchange plane
  kPolicyDecision = 11,///< a policy hook emitted directives (count = directives)
  kInject = 12,        ///< external arrival epoch (count = tasks injected)
};

/// Number of distinct kinds (for per-kind count arrays).
inline constexpr std::size_t kKindCount = 13;

/// Stable lowercase name for a kind (exported to JSONL / Chrome traces).
[[nodiscard]] std::string_view kind_name(Kind kind) noexcept;

/// Inverse of kind_name; returns false if `name` is not a known kind.
[[nodiscard]] bool parse_kind(std::string_view name, Kind& out) noexcept;

/// One trace event. Exactly 32 bytes, trivially copyable: a buffer of these
/// is a flat binary log. `payload` is a u64 bit-pattern; use payload_f64()
/// when the producer stored a double.
struct Record {
  double time = 0.0;          ///< simulation time of the event
  std::uint32_t kind = 0;     ///< Kind, stored raw so the struct stays POD
  std::int32_t node = -1;     ///< primary node id (-1 = not applicable)
  std::int32_t peer = -1;     ///< secondary node / destination / to-state
  std::uint32_t count = 0;    ///< cardinality (tasks in a bundle, directives, ...)
  std::uint64_t payload = 0;  ///< kind-specific extra datum (bit pattern)

  [[nodiscard]] Kind kind_enum() const noexcept { return static_cast<Kind>(kind); }
  [[nodiscard]] double payload_f64() const noexcept {
    double d;
    std::memcpy(&d, &payload, sizeof d);
    return d;
  }
  static std::uint64_t pack_f64(double d) noexcept {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
  }

  friend bool operator==(const Record& a, const Record& b) noexcept {
    return a.time == b.time && a.kind == b.kind && a.node == b.node && a.peer == b.peer &&
           a.count == b.count && a.payload == b.payload;
  }
};

static_assert(sizeof(Record) == 32, "trace records are fixed 32-byte PODs");
static_assert(std::is_trivially_copyable_v<Record>);

/// Append-only arena of Records. Storage is a list of fixed-capacity chunks:
/// the hot path is a pointer bump; a chunk allocation happens once per
/// kChunkRecords events (first chunk is small so an untraced-feeling run —
/// e.g. one replication of a two-node scenario — costs one 8 KiB block).
class TraceBuffer {
 public:
  static constexpr std::size_t kFirstChunkRecords = 256;
  /// 2048 records = 64 KiB per chunk — deliberately under glibc's 128 KiB
  /// mmap threshold, so steady-state chunk turnover is served from the
  /// (reused) heap instead of mmap/munmap round-trips with fresh pages.
  static constexpr std::size_t kChunkRecords = 2048;

  TraceBuffer() = default;
  ~TraceBuffer();
  TraceBuffer(TraceBuffer&&) noexcept = default;
  TraceBuffer& operator=(TraceBuffer&& other) noexcept;
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Appends one record. O(1), allocation-free except on chunk boundaries.
  void append(const Record& r) {
    if (cursor_ == end_) grow();
    *cursor_++ = r;
    ++size_;
  }

  /// Convenience append from fields.
  void emit(double time, Kind kind, std::int32_t node = -1, std::int32_t peer = -1,
            std::uint32_t count = 0, std::uint64_t payload = 0) {
    append(Record{time, static_cast<std::uint32_t>(kind), node, peer, count, payload});
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Number of records of the given kind (linear scan).
  [[nodiscard]] std::size_t count(Kind kind) const noexcept;

  /// Visits every record in append order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      const Record* begin = chunks_[c].data.get();
      const Record* end =
          (c + 1 == chunks_.size()) ? cursor_ : begin + chunks_[c].used;
      for (const Record* r = begin; r != end; ++r) fn(*r);
    }
  }

  /// Flat copy of all records (tests, exporters that need random access).
  [[nodiscard]] std::vector<Record> to_vector() const;

  /// Copies every record of `other` onto the end of this buffer. This is the
  /// replication-order merge: engines fold per-replication buffers in
  /// replication order, so the merged trace is thread-count-independent.
  void append_all(const TraceBuffer& other);

  /// Splices `other`'s chunks onto the end of this buffer, leaving `other`
  /// empty. O(chunks), no record copies — the allocation-free way for engines
  /// to fold per-replication buffers into the merged sink. Record order is
  /// identical to append_all (partially filled chunks keep their fill mark).
  void absorb(TraceBuffer&& other);

  /// Drops all records but keeps the allocated chunks for reuse.
  void clear() noexcept;

 private:
  /// Returns every chunk to the process-wide recycler (see trace.cpp). Reused
  /// chunks come back with warm pages, so steady-state tracing never churns
  /// through the allocator's mmap/trim path — that churn, not record
  /// emission, dominates recording overhead when arenas are freed cold.
  void release_chunks() noexcept;

  struct Chunk {
    std::unique_ptr<Record[]> data;
    std::size_t capacity = 0;
    /// Records actually written. Kept current for every chunk except the
    /// live last one, whose fill is `cursor_` (grow/absorb finalize it).
    std::size_t used = 0;
  };

  void grow();

  std::vector<Chunk> chunks_;
  Record* cursor_ = nullptr;  ///< next write slot in the last chunk
  Record* end_ = nullptr;     ///< one past the last chunk's capacity
  std::size_t size_ = 0;
};

/// Replays one replication's records into its queue lengths (Fig. 4): each
/// node's queue is +count at every kTaskArrive and -count at every
/// kTransferSend (from `node`) and kTaskComplete; every other kind is ignored.
/// Returns one row per node of `nodes`, holding the queue at each of `times`
/// (nondecreasing) after every record at or before it; before the first
/// record a queue reads 0. Throws std::invalid_argument on unsorted times, a
/// record earlier than its predecessor (the buffer is not one replication) or
/// a queue record whose node is outside [0, nodes).
[[nodiscard]] std::vector<std::vector<double>> queue_lengths_at(
    const TraceBuffer& events, std::size_t nodes, const std::vector<double>& times);

}  // namespace lbsim::obs
