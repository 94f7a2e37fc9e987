#pragma once
/// \file
/// A move-only `void()` callable with small-buffer storage sized so that every
/// callback the simulation engine itself schedules (service completions, churn
/// timers, bundle deliveries, periodic-rebalance ticks) lives inline — the
/// event hot path never heap-allocates. Larger or throwing-move callables fall
/// back to the heap transparently, so the type stays as general as
/// std::function for external users of the DES kernel.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lbsim::des {

/// True for callable types that have an empty state — function pointers,
/// std::function, SmallCallback, nullptr — so the kernel tests them before it
/// stores or calls one. (A captureless lambda qualifies through its function
/// pointer conversion and always tests true.)
template <typename F>
inline constexpr bool kNullable = std::is_constructible_v<bool, const F&>;

class SmallCallback {
  /// The callables the converting constructor and emplace() accept.
  template <typename F>
  static constexpr bool kCallable = !std::is_same_v<std::remove_cvref_t<F>, SmallCallback> &&
                                    std::is_invocable_r_v<void, std::remove_cvref_t<F>&>;

 public:
  /// Inline capacity in bytes. 64 covers the engine's largest event capture,
  /// a testbed state-packet delivery (handler pointer + receiver + 40-byte
  /// packet, 56 bytes; net::Network::broadcast_state).
  static constexpr std::size_t kInlineSize = 64;

  SmallCallback() noexcept = default;
  SmallCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename = std::enable_if_t<kCallable<F>>>
  SmallCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(fn));
  }

  SmallCallback(SmallCallback&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) vtable_->relocate(storage_, other.storage_);
    other.vtable_ = nullptr;
  }

  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  /// Replaces the held callable with `fn`, constructed directly in this
  /// object's storage: `cb.emplace(fn)` does what `cb = SmallCallback(fn)`
  /// does, minus the temporary and its relocation. If constructing `fn` throws,
  /// the callback is left empty.
  template <typename F, typename = std::enable_if_t<kCallable<F>>>
  void emplace(F&& fn) {
    reset();
    construct(std::forward<F>(fn));
  }
  /// The SmallCallback and nullptr forms, so that emplace() accepts whatever
  /// the constructors accept: a move-in and a reset.
  void emplace(SmallCallback&& other) noexcept { *this = std::move(other); }
  void emplace(std::nullptr_t) noexcept { reset(); }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(storage_); }

 private:
  struct VTable {
    void (*invoke)(void* self);
    /// Move-constructs dst from src and destroys src (nothrow by contract).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  /// Constructs `fn` into the (empty) storage; sets the vtable only once the
  /// construction succeeded.
  template <typename F>
  void construct(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      vtable_ = &inline_vtable<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      vtable_ = &heap_vtable<Fn>;
    }
  }

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); }};

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](void* self) { (**std::launder(reinterpret_cast<Fn**>(self)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* self) noexcept { delete *std::launder(reinterpret_cast<Fn**>(self)); }};

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

}  // namespace lbsim::des
