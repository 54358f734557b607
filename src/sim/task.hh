/**
 * @file
 * C++20 coroutine plumbing for the simulator.
 *
 * Protocol code is written as coroutines so that Table II of the paper
 * translates almost line-by-line into C++: each `co_await` is a point
 * where simulated time passes (compute occupancy, cache access, NIC round
 * trip). Two coroutine types exist:
 *
 *  - Task:         lazy, awaitable child coroutine. The parent frame owns
 *                  the Task object, so lifetimes nest naturally and
 *                  exceptions (e.g. transaction squashes) propagate up
 *                  through co_await.
 *  - DetachedTask: eager fire-and-forget root coroutine used for per-core
 *                  driver loops; it self-destroys at completion.
 */

#ifndef HADES_SIM_TASK_HH_
#define HADES_SIM_TASK_HH_

#include <coroutine>
#include <exception>
#include <utility>

#include "common/log.hh"
#include "sim/kernel.hh"

namespace hades::sim
{

/** Lazily-started awaitable coroutine; see file comment. */
class [[nodiscard]] Task
{
  public:
    struct promise_type
    {
        std::coroutine_handle<> continuation;
        std::exception_ptr exception;

        Task
        get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    Task &operator=(Task &&) = delete;

    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    /** Awaiter: start the child and resume the parent when it finishes. */
    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> child;

            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent) noexcept
            {
                child.promise().continuation = parent;
                return child; // symmetric transfer into the child
            }

            void
            await_resume()
            {
                if (child.promise().exception)
                    std::rethrow_exception(child.promise().exception);
            }
        };
        return Awaiter{handle_};
    }

  private:
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    std::coroutine_handle<promise_type> handle_;
};

/**
 * Eager root coroutine. Runs until its first suspension immediately and
 * self-destroys at the end; an escaped exception is a simulator bug.
 */
class DetachedTask
{
  public:
    struct promise_type
    {
        DetachedTask get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            panic("exception escaped a detached simulation task");
        }
    };
};

/** Awaitable that suspends the coroutine for @p delay simulated ticks. */
class Delay
{
  public:
    Delay(Kernel &kernel, Tick delay) : kernel_(kernel), delay_(delay) {}

    bool await_ready() const noexcept { return delay_ == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        kernel_.schedule(delay_, [h] { h.resume(); });
    }

    void await_resume() const noexcept {}

  private:
    Kernel &kernel_;
    Tick delay_;
};

/**
 * One wait of a `co_await Delay{kernel, period}` polling loop whose
 * condition only Kernel::wakeParked(node, tag) for the polling node can
 * change: the polls that would find it unchanged are replayed in the
 * kernel instead of run (Kernel::park()). The coroutine resumes at the
 * (tick, key) of the first poll after a wake, or of poll @p maxPolls,
 * and co_await yields the number of polls made, that one included.
 */
class ParkedDelay
{
  public:
    ParkedDelay(Kernel &kernel, Tick period, std::uint64_t tag,
                std::uint64_t maxPolls)
        : kernel_(kernel)
    {
        always_assert(maxPolls > 0, "a parked delay makes at least one poll");
        poll_.period = period;
        poll_.tag = tag;
        poll_.maxReplayed = maxPolls - 1;
    }

    bool await_ready() const noexcept { return poll_.period == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        poll_.waiter = h;
        kernel_.park(poll_);
    }

    std::uint64_t await_resume() const noexcept { return poll_.replayed + 1; }

  private:
    Kernel &kernel_;
    ParkedPoll poll_;
};

/**
 * Awaitable that re-enters the coroutine in @p node's execution
 * context (at the current simulated time). The per-context transaction
 * drivers hop to their node before running transaction bodies, so that
 * under sharded execution each transaction executes on its node's
 * lane; in serial mode it degenerates to a zero-delay reschedule.
 */
class HopTo
{
  public:
    HopTo(Kernel &kernel, NodeId node) : kernel_(kernel), node_(node) {}

    bool
    await_ready() const noexcept
    {
        return kernel_.currentNode() == node_;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        kernel_.scheduleAs(node_, 0, [h] { h.resume(); });
    }

    void await_resume() const noexcept {}

  private:
    Kernel &kernel_;
    NodeId node_;
};

/**
 * One-shot completion event: a coroutine waits on it, some other event
 * (e.g. a NIC delivering a response) fires it. Resumption is routed
 * through the kernel at the firing time so event ordering stays FIFO and
 * stack depth stays bounded.
 */
class Completion
{
  public:
    /** True once fire() has been called. */
    bool done() const { return done_; }

    /** Trigger the completion, waking the waiter (if any). */
    void
    fire(Kernel &kernel)
    {
        always_assert(!done_, "Completion fired twice");
        done_ = true;
        if (waiter_) {
            auto h = std::exchange(waiter_, nullptr);
            kernel.schedule(0, [h] { h.resume(); });
        }
    }

    /** Awaitable returned to the waiting coroutine. */
    auto
    wait()
    {
        struct Awaiter
        {
            Completion &c;
            bool await_ready() const noexcept { return c.done_; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                always_assert(c.waiter_ == nullptr,
                              "Completion supports a single waiter");
                c.waiter_ = h;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Rearm for reuse (only when no waiter is pending). */
    void
    reset()
    {
        always_assert(waiter_ == nullptr, "reset with pending waiter");
        done_ = false;
    }

  private:
    bool done_ = false;
    std::coroutine_handle<> waiter_ = nullptr;
};

/**
 * Auto-reset event: notify() wakes the (single) waiter, or is remembered
 * if nobody is waiting yet. Used for "wait until either all Acks arrived
 * or a Squash was delivered" loops, where multiple wake sources race.
 */
class AutoResetEvent
{
  public:
    /** Wake the waiter (through the kernel), or latch if none. */
    void
    notify(Kernel &kernel)
    {
        if (waiter_) {
            auto h = std::exchange(waiter_, nullptr);
            kernel.schedule(0, [h] { h.resume(); });
        } else {
            pending_ = true;
        }
    }

    /** Awaitable: consumes a pending notify or suspends until one. */
    auto
    wait()
    {
        struct Awaiter
        {
            AutoResetEvent &e;

            bool
            await_ready() noexcept
            {
                if (e.pending_) {
                    e.pending_ = false;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                always_assert(e.waiter_ == nullptr,
                              "AutoResetEvent supports a single waiter");
                e.waiter_ = h;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

  private:
    bool pending_ = false;
    std::coroutine_handle<> waiter_ = nullptr;
};

/**
 * Counts down from N completions; used for fan-out protocol steps such as
 * "receive Acks from all the remote nodes involved in the transaction".
 */
class CountdownLatch
{
  public:
    explicit CountdownLatch(std::uint32_t count = 0) : remaining_(count) {}

    /** One event arrived; wakes the waiter when the count hits zero. */
    void
    countDown(Kernel &kernel)
    {
        always_assert(remaining_ > 0, "countDown below zero");
        if (--remaining_ == 0 && waiter_) {
            auto h = std::exchange(waiter_, nullptr);
            kernel.schedule(0, [h] { h.resume(); });
        }
    }

    auto
    wait()
    {
        struct Awaiter
        {
            CountdownLatch &l;
            bool await_ready() const noexcept { return l.remaining_ == 0; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                always_assert(l.waiter_ == nullptr,
                              "CountdownLatch supports a single waiter");
                l.waiter_ = h;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

  private:
    std::uint32_t remaining_;
    std::coroutine_handle<> waiter_ = nullptr;
};

} // namespace hades::sim

#endif // HADES_SIM_TASK_HH_
