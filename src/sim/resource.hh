/**
 * @file
 * Serially-reusable resources for the timing model.
 *
 * ComputeResource models a core's execution bandwidth: a hardware context
 * that "occupies" the core for d ticks delays any later occupancy request
 * accordingly. Network waits do NOT occupy the core, which is exactly how
 * the m multiplexed transactions per core of the paper hide network
 * latency behind each other's compute.
 */

#ifndef HADES_SIM_RESOURCE_HH_
#define HADES_SIM_RESOURCE_HH_

#include <algorithm>
#include <coroutine>

#include "sim/kernel.hh"

namespace hades::sim
{

/**
 * Thrown into a coroutine that tries to make progress on a permanently
 * crashed node (frozen core, dead NIC endpoint). It unwinds the whole
 * protocol stack of the affected hardware context -- Task propagates it
 * through every co_await -- until the per-context driver loop catches it
 * and retires the context. This is how fail-stop is modeled: crashed
 * nodes stop executing, they do not keep simulating.
 */
struct NodeDead
{
};

/**
 * A pipelined FCFS resource. occupy(d) returns an awaitable that resumes
 * the caller once the resource has been held for d ticks starting at the
 * earliest time the resource is free.
 */
class ComputeResource
{
  public:
    explicit ComputeResource(Kernel &kernel) : kernel_(kernel) {}

    /** Total busy time accumulated (for utilization stats). */
    Tick busyTime() const { return busyTime_; }

    /**
     * Reserve the resource for @p duration ticks without suspending:
     * bumps the backlog and returns the time the reservation completes.
     * Used by fire-and-forget senders (e.g. one-way NIC posts).
     */
    Tick
    reserve(Tick duration)
    {
        Tick start = std::max(freeAt_, kernel_.now());
        freeAt_ = start + duration;
        busyTime_ += duration;
        return freeAt_;
    }

    /**
     * Permanently crash the resource. Occupancies still suspended when
     * the freeze lands (their wake-up events are already in the kernel
     * queue) resume only to throw NodeDead, and so do all later
     * occupy() calls: code running on a crashed core cannot advance.
     */
    void freeze() { frozen_ = true; }

    /** Hold the resource for @p duration ticks (FCFS). */
    auto
    occupy(Tick duration)
    {
        struct Awaiter
        {
            ComputeResource &res;
            Tick duration;

            bool
            await_ready() const noexcept
            {
                return duration == 0 && !res.frozen_;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                // A frozen resource resumes immediately; await_resume
                // then throws into the caller. Not reserving keeps the
                // dead core's counters at their crash-instant values.
                Tick done = res.frozen_ ? res.kernel_.now()
                                        : res.reserve(duration);
                res.kernel_.scheduleAt(done, [h] { h.resume(); });
            }

            void
            await_resume() const
            {
                if (res.frozen_)
                    throw NodeDead{};
            }
        };
        return Awaiter{*this, duration};
    }

  private:
    Kernel &kernel_;
    Tick freeAt_ = 0;
    Tick busyTime_ = 0;
    bool frozen_ = false;
};

} // namespace hades::sim

#endif // HADES_SIM_RESOURCE_HH_
