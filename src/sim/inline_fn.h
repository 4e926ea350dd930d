// Small-buffer move-only callable, the one callback type of the request
// path: engine events, RPC completions, gateway replies and load
// generator completions are all instances of it.
//
// std::function heap-allocates most closures (captures beyond its
// ~2-word SBO) and drags in copy-ability the callers never need.
// InlineFn<R(Args...), Capacity> stores callables up to `Capacity` bytes
// in place, so the closures built once per request never touch the
// allocator, and falls back to a single heap cell for oversized
// captures. Move-only, so closures may own move-only state (pending
// flights, buffers, other InlineFns).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lnic::sim {

template <typename Signature, std::size_t Capacity>
class InlineFn;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
  template <typename F>
  using Enabled = std::enable_if_t<
      !std::is_same_v<std::decay_t<F>, InlineFn> &&
      std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>;

 public:
  /// True when a callable of type F is stored in place rather than in a
  /// heap cell.
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}

  template <typename F, typename = Enabled<F>>
  InlineFn(F&& fn) {
    emplace(std::forward<F>(fn));
  }

  InlineFn(InlineFn&& other) noexcept { take(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    assign(std::move(other));
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  // const like std::function: invoking from a non-mutable lambda capture
  // is the norm. The callable itself may still mutate its own state.
  R operator()(Args... args) const {
    return ops_->invoke(&storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  /// Constructs `fn` directly in this cell (replacing any held callable)
  /// — lets callers skip the construct-then-relocate of assigning a
  /// freshly built InlineFn.
  template <typename F, typename = Enabled<F>>
  void assign(F&& fn) {
    reset();
    emplace(std::forward<F>(fn));
  }
  void assign(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src) noexcept;  // move + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* s, Args&&... args) -> R {
          return (*static_cast<D*>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        [](void* s) noexcept { static_cast<D*>(s)->~D(); }};
    return &ops;
  }

  template <typename D>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* s, Args&&... args) -> R {
          return (**static_cast<D**>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          ::new (dst) D*(*static_cast<D**>(src));
        },
        [](void* s) noexcept { delete *static_cast<D**>(s); }};
    return &ops;
  }

  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (kStoresInline<D>) {
      ::new (&storage_) D(std::forward<F>(fn));
      ops_ = inline_ops<D>();
    } else {
      static_assert(Capacity >= sizeof(D*), "no room for the heap cell");
      ::new (&storage_) D*(new D(std::forward<F>(fn)));
      ops_ = heap_ops<D>();
    }
  }

  void take(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  // Storage first, so the ops pointer fills the tail padding of
  // capacities that are not a multiple of the alignment.
  alignas(std::max_align_t) mutable unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace lnic::sim
