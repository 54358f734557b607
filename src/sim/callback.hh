/**
 * @file
 * Small-buffer-optimized move-only callable for the DES kernel hot path.
 *
 * Every simulated event is a closure; the overwhelmingly common case is
 * a coroutine-resumption lambda capturing a single coroutine_handle
 * (8 bytes). std::function heap-allocates many such closures and drags
 * in copyability machinery the kernel never uses. EventCallback stores
 * any callable up to kInlineBytes directly inside the object (no heap
 * allocation), spills larger ones to the heap, and is move-only, which
 * is exactly the ownership model of a fire-once event queue.
 */

#ifndef HADES_SIM_CALLBACK_HH_
#define HADES_SIM_CALLBACK_HH_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hades::sim
{

/** Move-only type-erased void() callable with inline storage. */
class EventCallback
{
  public:
    /** Inline storage size: fits coroutine-resumption lambdas, the
     *  kernel-internal closures, and a std::function by value. */
    static constexpr std::size_t kInlineBytes = 48;

    EventCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT: implicit from any callable
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "event callbacks take no arguments");
        if constexpr (fitsInline<Fn>()) {
            new (storage_) Fn(std::forward<F>(fn));
            ops_ = inlineOps<Fn>();
            heap_ = false;
        } else {
            void *p = new Fn(std::forward<F>(fn));
            std::memcpy(storage_, &p, sizeof(p));
            ops_ = heapOps<Fn>();
            heap_ = true;
        }
    }

    EventCallback(EventCallback &&o) noexcept
        : ops_(o.ops_), heap_(o.heap_)
    {
        if (!ops_)
            return;
        if (heap_)
            std::memcpy(storage_, o.storage_, sizeof(void *));
        else
            ops_->relocate(o.storage_, storage_);
        o.ops_ = nullptr;
    }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this == &o)
            return *this;
        reset();
        ops_ = o.ops_;
        heap_ = o.heap_;
        if (ops_) {
            if (heap_)
                std::memcpy(storage_, o.storage_, sizeof(void *));
            else
                ops_->relocate(o.storage_, storage_);
            o.ops_ = nullptr;
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(target());
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst from src, then destroy src (inline
         *  storage only; heap relocation is a pointer copy). */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static const Ops *
    inlineOps()
    {
        static constexpr Ops ops{
            [](void *p) { (*static_cast<Fn *>(p))(); },
            [](void *src, void *dst) {
                new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            },
            [](void *p) { static_cast<Fn *>(p)->~Fn(); }};
        return &ops;
    }

    template <typename Fn>
    static const Ops *
    heapOps()
    {
        static constexpr Ops ops{
            [](void *p) { (*static_cast<Fn *>(p))(); },
            nullptr,
            [](void *p) { delete static_cast<Fn *>(p); }};
        return &ops;
    }

    void *
    target() noexcept
    {
        if (!heap_)
            return storage_;
        void *p;
        std::memcpy(&p, storage_, sizeof(p));
        return p;
    }

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(target());
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops *ops_ = nullptr;
    bool heap_ = false;
};

} // namespace hades::sim

#endif // HADES_SIM_CALLBACK_HH_
