#pragma once
/// \file
/// Fixed-size memory blocks recycled through a free list, the allocator that
/// lets a standard container draw its nodes from them, and the task chain a
/// bundle in flight is stored in.
///
/// A replication workspace (mc::ReplicationWorkspace) owns one BlockPool that
/// every node queue and every bundle in flight shares, so task storage is
/// recycled across a worker's whole replication loop instead of going back to
/// the global heap block by block. Because the pool is shared, its size
/// tracks the tasks alive at once, not the sum of each queue's high-water
/// mark.

#include <cstddef>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>

#include "node/task.hpp"

namespace lbsim::node {

/// A free list of kBlockBytes-sized blocks, carved kChunkBlocks at a time from
/// one heap allocation; deallocate() puts a block back on the list, never on
/// the heap, and the destructor frees the chunks. The pool must outlive every
/// container that draws from it.
class BlockPool {
 public:
  /// libstdc++'s deque node size for elements of 32 bytes (node::Task).
  static constexpr std::size_t kBlockBytes = 512;
  /// Blocks per heap allocation: a pool that has to grow does so rarely, so
  /// a warmed-up workspace stops allocating.
  static constexpr std::size_t kChunkBlocks = 16;

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  ~BlockPool() {
    while (chunks_ != nullptr) {
      Chunk* next = chunks_->next;
      ::operator delete(static_cast<void*>(chunks_));
      chunks_ = next;
    }
  }

  [[nodiscard]] void* allocate() {
    if (free_ == nullptr) grow();
    FreeBlock* block = free_;
    free_ = block->next;
    return block;
  }

  void deallocate(void* block) noexcept { free_ = ::new (block) FreeBlock{free_}; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  /// Chunk header; the chunk's blocks follow it.
  struct alignas(std::max_align_t) Chunk {
    Chunk* next;
  };

  void grow() {
    void* raw = ::operator new(sizeof(Chunk) + kChunkBlocks * kBlockBytes);
    chunks_ = ::new (raw) Chunk{chunks_};
    std::byte* first = reinterpret_cast<std::byte*>(chunks_ + 1);
    for (std::size_t b = kChunkBlocks; b-- > 0;) deallocate(first + b * kBlockBytes);
  }

  FreeBlock* free_ = nullptr;
  Chunk* chunks_ = nullptr;
};

/// Allocator over an optional BlockPool: requests of exactly one block come
/// from the pool, everything else (and everything when there is no pool) from
/// the global heap through std::allocator, so a container without a pool
/// allocates exactly as it would with std::allocator.
template <typename T>
class BlockAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  BlockAllocator() noexcept = default;
  explicit BlockAllocator(BlockPool* pool) noexcept : pool_(pool) {}
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor)
  BlockAllocator(const BlockAllocator<U>& other) noexcept : pool_(other.pool()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (from_pool(n)) return static_cast<T*>(pool_->allocate());
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (from_pool(n)) {
      pool_->deallocate(p);
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }

  [[nodiscard]] BlockPool* pool() const noexcept { return pool_; }

  friend bool operator==(const BlockAllocator& a, const BlockAllocator& b) noexcept {
    return a.pool_ == b.pool_;
  }

 private:
  [[nodiscard]] bool from_pool(std::size_t n) const noexcept {
    return pool_ != nullptr && n * sizeof(T) == BlockPool::kBlockBytes;
  }

  BlockPool* pool_ = nullptr;
};

/// A FIFO of tasks whose blocks come from a BlockPool (or the heap, without
/// one): a node queue of the Monte-Carlo engine.
using TaskQueue = std::deque<Task, BlockAllocator<Task>>;

/// Tasks in push order on a chain of pool blocks: a bundle in flight. An
/// empty chain holds no block, so an idle bundle slot costs no task storage.
class TaskChain {
  struct Block;

 public:
  explicit TaskChain(BlockPool& pool) noexcept : pool_(&pool) {}
  TaskChain(const TaskChain&) = delete;
  TaskChain& operator=(const TaskChain&) = delete;
  ~TaskChain() { clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void push_back(const Task& task) {
    const std::size_t slot = size_ % kTasksPerBlock;
    if (slot == 0) {
      Block* block = ::new (pool_->allocate()) Block;
      (tail_ == nullptr ? head_ : tail_->next) = block;
      tail_ = block;
    }
    ::new (static_cast<void*>(tail_->storage + slot * sizeof(Task))) Task(task);
    ++size_;
  }

  /// Returns every block to the pool.
  void clear() noexcept {
    while (head_ != nullptr) {
      Block* next = head_->next;
      pool_->deallocate(head_);
      head_ = next;
    }
    tail_ = nullptr;
    size_ = 0;
  }

  class const_iterator {
   public:
    const_iterator(const Block* block, std::size_t index) noexcept
        : block_(block), index_(index) {}
    const Task& operator*() const noexcept {
      return *std::launder(reinterpret_cast<const Task*>(
          block_->storage + index_ % kTasksPerBlock * sizeof(Task)));
    }
    const_iterator& operator++() noexcept {
      if (++index_ % kTasksPerBlock == 0) block_ = block_->next;
      return *this;
    }
    bool operator!=(const const_iterator& other) const noexcept {
      return index_ != other.index_;
    }

   private:
    const Block* block_;
    std::size_t index_;
  };
  [[nodiscard]] const_iterator begin() const noexcept { return {head_, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {nullptr, size_}; }

 private:
  static constexpr std::size_t kTasksPerBlock =
      (BlockPool::kBlockBytes - sizeof(void*)) / sizeof(Task);
  struct Block {
    Block* next = nullptr;
    alignas(Task) std::byte storage[kTasksPerBlock * sizeof(Task)];
  };
  static_assert(sizeof(Block) <= BlockPool::kBlockBytes);

  BlockPool* pool_;
  Block* head_ = nullptr;
  Block* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace lbsim::node
