/**
 * @file
 * Discrete-event simulation kernel, optionally sharded by node.
 *
 * Event ordering is deterministic and *shard-count invariant*: every
 * event is stamped at schedule time with the identity of the node
 * context that scheduled it (the "source node") and a per-source-node
 * sequence number, and events fire in (time, source-node, source-seq)
 * lexicographic order. Because the per-node sequence streams do not
 * depend on how the other nodes' events interleave, the total order --
 * and therefore every simulation result -- is a pure function of the
 * model, not of the shard count or of thread scheduling. This is the
 * tie-break contract the parallel differential tests rely on.
 *
 * Three execution modes share that one total order:
 *
 *  - serial (shards == 1, the default and the oracle): a single binary
 *    heap pops events in key order, exactly as before.
 *  - sharded deterministic (shards > 1): nodes are partitioned into
 *    lanes by the pure function laneOf(node) = node % shards; each lane
 *    owns a heap, and a single thread merges the lane fronts in key
 *    order while advancing conservative time windows. Cross-lane events
 *    at or beyond the next window barrier travel through per-lane-pair
 *    mailboxes drained at the barrier. Works for every model (faults,
 *    recovery, audit included) because same-window cross-lane events
 *    are simply executed in exact key order.
 *  - sharded threaded (shards > 1, ShardPlan::threaded): one thread
 *    per lane (the calling thread runs lane 0) executes its lane's
 *    events inside the current window concurrently with the other
 *    lanes. The window width is the conservative lookahead (no
 *    cross-node message can arrive sooner than the NIC round-trip
 *    floor allows), so lanes never need each other mid-window;
 *    cross-lane events wait in per-lane-pair mailboxes. Lanes meet at
 *    one barrier per window, and the last lane to arrive drains the
 *    mailboxes and opens the next window at the earliest pending
 *    event, skipping idle time. A cross-lane event scheduled *inside*
 *    the current window is a lookahead violation and panics. A run
 *    the runner certifies lane-closed (ShardPlan::laneClosed) opens
 *    one unbounded window instead: each lane runs to completion and
 *    the run crosses no barrier.
 *    Identical results to the serial oracle follow from the
 *    shard-invariant key order plus lane-disjoint model state (the
 *    runner certifies specs before enabling this mode; see DESIGN.md
 *    section 11).
 *
 * A periodic poll whose condition only a known event can change parks
 * out of the heap (park()); the kernel replays its polls' key draws
 * and event counts instead of running them, so every key is the one
 * the Delay loop it replaces would have drawn.
 *
 * Hot-path layout: the priority queue is a hand-managed binary heap of
 * 24-byte POD entries (when, key, slot, exec-node) over a contiguous
 * arena of small-buffer-optimized callbacks. Sift operations move only
 * the POD entries -- never the closures -- and closures small enough
 * for the inline buffer (the coroutine-resumption common case) are
 * stored without any heap allocation. Each lane, each per-node sequence
 * counter and each mailbox sits on its own cache line, so lanes running
 * on different cores never write to a shared line mid-window.
 */

#ifndef HADES_SIM_KERNEL_HH_
#define HADES_SIM_KERNEL_HH_

#include <algorithm>
#include <atomic>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/log.hh"
#include "common/types.hh"
#include "sim/callback.hh"

namespace hades::sim
{

/**
 * Pseudo-node identity for events scheduled outside any node's context
 * (experiment setup, fault plans, recovery timers, driver launch).
 * Control-context events sort *before* same-tick node events.
 */
inline constexpr NodeId kControlNode = 0xffffffffu;

/**
 * Thrown by protocol code that reaches a path the threaded executor
 * cannot run bit-identically (today: the global pessimistic-token
 * fallback). The per-context driver retires the context, the kernel
 * drains, and the runner transparently re-runs the spec through the
 * sharded deterministic executor, which handles every path.
 */
struct SerialRerunNeeded
{
};

/** Sharding configuration handed to Kernel::configureSharding(). */
struct ShardPlan
{
    /** Number of lanes; 1 keeps the serial oracle. */
    std::uint32_t shards = 1;
    /** Cluster size, for pre-sizing the per-node sequence streams. */
    std::uint32_t numNodes = 0;
    /** Conservative window width (the lookahead). @pre > 0 if
     *  shards > 1. */
    Tick windowTicks = 0;
    /** Execute lanes on worker threads (certified specs only). */
    bool threaded = false;
    /** The runner proved that no event will cross a lane (every
     *  context touches only records homed on its own node): a threaded
     *  run then executes one unbounded window, each lane to completion,
     *  and crosses no barrier. Ignored unless threaded. */
    bool laneClosed = false;
};

/**
 * A poll parked out of the event heap (see Kernel::park()). It lives in
 * the waiting coroutine's frame; the kernel links it into the list of
 * the node that parked it.
 */
struct ParkedPoll
{
    /** Ticks between polls. @pre > 0 */
    Tick period = 0;
    /** Matched by Kernel::wakeParked(node, tag). */
    std::uint64_t tag = 0;
    /** Polls the kernel may replay; the one after them runs for real. */
    std::uint64_t maxReplayed = 0;
    std::coroutine_handle<> waiter;

    // Kernel-owned while parked.
    Tick when = 0;              //!< the next poll's tick
    std::uint64_t key = 0;      //!< and its ordering key
    std::uint64_t replayed = 0; //!< polls replayed so far
    ParkedPoll *next = nullptr;

    /** Tick of the poll that must run for real. */
    Tick
    deadline() const
    {
        return when + Tick(maxReplayed - replayed) * period;
    }
};

/** The DES scheduler. */
class Kernel
{
  public:
    using Callback = EventCallback;

    /** Default bulk reservation (events); see reserve(). */
    static constexpr std::size_t kDefaultReserve = 256;
    /** Bits of the per-source-node sequence counter inside the key. */
    static constexpr unsigned kSeqBits = 48;

    Kernel() : lanes_(1) { reserve(kDefaultReserve); }

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Lane assignment: a pure function of the node id and the shard
     * count only (the parallel property tests assert this).
     */
    static std::uint32_t
    laneOf(NodeId node, std::uint32_t shards)
    {
        return node == kControlNode ? 0 : node % shards;
    }

    /**
     * Select the sharded execution mode. Must be called before any
     * event is scheduled (the runner configures right after binding
     * the generators to the System's placement).
     */
    void
    configureSharding(const ShardPlan &plan)
    {
        always_assert(totalScheduled() == 0,
                      "configureSharding on a kernel already in use");
        always_assert(plan.shards >= 1, "need at least one shard");
        shards_ = plan.shards;
        threaded_ = plan.threaded && shards_ > 1;
        laneClosed_ = threaded_ && plan.laneClosed;
        windowTicks_ = plan.windowTicks;
        if (shards_ > 1) {
            always_assert(windowTicks_ > 0,
                          "sharded execution needs a positive window");
            windowEnd_ = windowTicks_;
        }
        lanes_.clear();
        lanes_.resize(shards_);
        mail_.clear();
        mail_.resize(std::size_t{shards_} * shards_);
        seqByRank_.assign(std::size_t{plan.numNodes} + 2, SeqCounter{});
        reserve(kDefaultReserve);
    }

    /** Current simulated time (lane-local while a sharded run is in
     *  flight; the global clock otherwise). */
    Tick
    now() const
    {
        const ExecContext *c = tlsCtx_;
        return c && c->kernel == this ? c->now : now_;
    }

    /** Node context of the currently executing event (kControlNode
     *  outside any event, e.g. during experiment setup). */
    NodeId
    currentNode() const
    {
        const ExecContext *c = tlsCtx_;
        return c && c->kernel == this ? c->node : kControlNode;
    }

    /** Ordering key of the currently executing event (0 outside any
     *  event). */
    std::uint64_t
    currentKey() const
    {
        const ExecContext *c = tlsCtx_;
        return c && c->kernel == this ? c->key : 0;
    }

    /** Number of events executed so far (for progress accounting). */
    std::uint64_t
    eventsRun() const
    {
        std::uint64_t n = 0;
        for (const Lane &l : lanes_)
            n += l.eventsRun;
        return n;
    }

    // --- Sharded-execution observability ---------------------------------
    std::uint32_t shards() const { return shards_; }
    bool threaded() const { return threaded_; }
    /** A threaded run certified lane-closed (see ShardPlan). */
    bool laneClosed() const { return laneClosed_; }
    /** Window barriers crossed (== windows entered beyond the first). */
    std::uint64_t windowBarriers() const { return barriers_; }
    /** Events that crossed a lane boundary (mailbox traffic). */
    std::uint64_t
    crossShardEvents() const
    {
        std::uint64_t n = 0;
        for (const Lane &l : lanes_)
            n += l.crossShardOut;
        return n;
    }

    /** True while a threaded run is in flight. */
    bool
    threadedActive() const
    {
        return threadedActive_.load(std::memory_order_relaxed);
    }

    /** Ask the runner to redo this simulation on the deterministic
     *  executor (see SerialRerunNeeded). */
    void
    requestSerialRerun()
    {
        rerunRequested_.store(true, std::memory_order_relaxed);
    }

    bool
    serialRerunRequested() const
    {
        return rerunRequested_.load(std::memory_order_relaxed);
    }

    /** Pre-size the heap and callback arena of every lane for @p events
     *  pending events, so steady-state scheduling performs no
     *  allocation. */
    void
    reserve(std::size_t events)
    {
        std::size_t per = events / lanes_.size() + 1;
        for (Lane &l : lanes_) {
            l.heap.reserve(per);
            l.slots.reserve(per);
            l.freeSlots.reserve(per);
        }
    }

    /** Schedule @p fn to run @p delay ticks from now in the scheduling
     *  context's own node context. @pre delay >= 0. */
    void
    schedule(Tick delay, Callback fn)
    {
        always_assert(delay >= 0, "negative event delay");
        scheduleAtAs(now() + delay, currentNode(), std::move(fn));
    }

    /** Schedule @p fn at absolute time @p when. @pre when >= now(). */
    void
    scheduleAt(Tick when, Callback fn)
    {
        scheduleAtAs(when, currentNode(), std::move(fn));
    }

    /** Schedule @p fn to run in @p exec's node context @p delay ticks
     *  from now (cross-node deliveries name their destination). */
    void
    scheduleAs(NodeId exec, Tick delay, Callback fn)
    {
        always_assert(delay >= 0, "negative event delay");
        scheduleAtAs(now() + delay, exec, std::move(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when, to execute in node
     * @p exec's context. The event's ordering key is stamped from the
     * *scheduling* context: (when, source node, per-source-node seq).
     */
    void
    scheduleAtAs(Tick when, NodeId exec, Callback fn)
    {
        ExecContext *c = current();
        always_assert(when >= (c ? c->now : now_),
                      "event scheduled in the past");
        const std::uint64_t key = drawKey(c);

        const std::uint32_t dstLane = laneOf(exec, shards_);
        const std::uint32_t srcLane = c ? c->lane : dstLane;
        if (shards_ > 1 && c && dstLane != srcLane) {
            Lane &src = lanes_[srcLane];
            ++src.crossShardOut;
            if (threaded_) {
                // Conservative lookahead: a cross-lane event may not
                // land inside the window the lanes are executing.
                always_assert(
                    when >= windowEnd_,
                    "lookahead violated: cross-shard event scheduled "
                    "inside the current window");
                mailbox(srcLane, dstLane).push_back(
                    Mail{when, key, exec, std::move(fn)});
                return;
            }
            if (when >= windowEnd_) {
                // Deterministic mode exercises the same barrier
                // machinery for events beyond the window; same-window
                // cross-lane events (legal here) go straight into the
                // destination heap and execute in exact key order.
                mailbox(srcLane, dstLane).push_back(
                    Mail{when, key, exec, std::move(fn)});
                return;
            }
        }
        pushLane(lanes_[dstLane], when, key, exec, std::move(fn));
    }

    /**
     * Park @p p, the next poll of a loop `co_await Delay{kernel,
     * p.period}` that waits on a condition only wakeParked() for this
     * node can change. The poll's key is drawn exactly as that Delay
     * would draw it, but the poll stays out of the heap. Every later
     * poll that would find the condition unchanged is *replayed*:
     * before the parking node's sequence stream draws a key for anyone,
     * the kernel draws, in key order, the keys of that node's parked
     * polls that precede the running event, and counts each in
     * eventsRun(). Keys, event counts and results are therefore those
     * of the Delay loop. A poll runs for real, resuming p.waiter at its
     * own (tick, key), after a wakeParked() or when it is poll number
     * p.maxReplayed + 1, so with p.maxReplayed == 0 park() is exactly a
     * Delay. Otherwise call it from an event of the parking node; p
     * must stay alive until p.waiter resumes.
     */
    void
    park(ParkedPoll &p)
    {
        always_assert(p.period > 0, "parked poll needs a positive period");
        p.replayed = 0;
        if (p.maxReplayed == 0) {
            // Nothing to replay: the poll is a plain Delay.
            schedule(p.period, [h = p.waiter] { h.resume(); });
            return;
        }
        ExecContext *c = current();
        always_assert(c != nullptr, "park outside an event");
        always_assert(Tick(p.maxReplayed) <
                          (kTickMax - c->now) / p.period - 1,
                      "parked poll deadline overflows");
        p.when = c->now + p.period;
        p.key = drawKey(c);
        const std::uint32_t rank = rankOf(c->node);
        SeqCounter &s = seqByRank_[rank];
        p.next = s.parked;
        s.parked = &p;
        Lane &l = lanes_[c->lane];
        ++l.parked;
        l.parkDeadline = std::min(l.parkDeadline, p.deadline());
    }

    /** Run the next poll of every poll @p node parked for real: their
     *  condition may have changed. */
    void wakeParked(NodeId node) { wake(node, false, 0); }

    /** As wakeParked(node), for the polls tagged @p tag only. */
    void
    wakeParked(NodeId node, std::uint64_t tag)
    {
        wake(node, true, tag);
    }

    /**
     * Run until the queue drains or @p maxTime is reached.
     * @return true if the queue drained, false if the horizon stopped us.
     */
    bool
    run(Tick maxTime = -1)
    {
        stopped_.store(false, std::memory_order_relaxed);
        if (shards_ <= 1)
            return runSerial(maxTime);
        if (threaded_)
            return runThreaded(maxTime);
        return runShardedDet(maxTime);
    }

    /** Request that run() return after the current event completes. */
    void stop() { stopped_.store(true, std::memory_order_relaxed); }

    bool
    empty() const
    {
        for (const Lane &l : lanes_)
            if (!l.heap.empty() || l.parked != 0)
                return false;
        return !anyMail();
    }

  private:
    /** POD heap entry; closures stay put in the arena while entries
     *  sift, so reordering is three 8-byte stores per level. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t key; //!< (source-node rank << kSeqBits) | seq
        std::uint32_t slot;
        NodeId exec; //!< node context the event executes in
    };

    /** A cross-lane event in flight between window barriers. The
     *  producing lane appends while it executes a window; the barrier's
     *  completion step drains while every lane waits at the barrier, so
     *  the pair never accesses a mailbox concurrently (single producer,
     *  single consumer, separated by the barrier). */
    struct Mail
    {
        Tick when;
        std::uint64_t key;
        NodeId exec;
        Callback fn;
    };

    /** One (src, dst) mailbox, on its own cache line: the source lane
     *  writes its vector header on every cross-lane send. */
    struct alignas(64) Mailbox
    {
        std::vector<Mail> items;
    };

    /** A per-source-node sequence stream, on its own cache line: it is
     *  bumped on every schedule, and neighbouring node ids belong to
     *  different lanes. */
    struct alignas(64) SeqCounter
    {
        std::uint64_t next = 0;
        /** Polls this node parked (park()), unordered. Per node like
         *  the stream: only the node's own lane parks, replays or wakes
         *  them while a threaded window runs. */
        ParkedPoll *parked = nullptr;
    };

    /** One shard: a heap + closure arena, owned by one thread while a
     *  threaded window executes. Aligned so that its vector headers and
     *  counters, written on every event, share no line with another
     *  lane's. */
    struct alignas(64) Lane
    {
        std::vector<HeapEntry> heap;
        std::vector<Callback> slots;
        std::vector<std::uint32_t> freeSlots;
        Tick lastNow = 0;
        std::uint64_t eventsRun = 0;
        std::uint64_t crossShardOut = 0;
        /** Polls parked by this lane's nodes, and a lower bound on
         *  their deadlines (kTickMax when there are none). */
        std::uint64_t parked = 0;
        Tick parkDeadline = kTickMax;
    };

    /** Per-thread execution context: which kernel/lane is running and
     *  the lane-local clock + node identity of the current event. */
    struct ExecContext
    {
        const Kernel *kernel;
        std::uint32_t lane;
        Tick now;
        NodeId node;
        std::uint64_t key = 0;
    };

    /** RAII guard installing an ExecContext for the calling thread. */
    struct CtxScope
    {
        explicit CtxScope(ExecContext *c) : prev(tlsCtx_)
        {
            tlsCtx_ = c;
        }
        ~CtxScope() { tlsCtx_ = prev; }
        ExecContext *prev;
    };

    ExecContext *
    current() const
    {
        ExecContext *c = tlsCtx_;
        return c && c->kernel == this ? c : nullptr;
    }

    static std::uint32_t
    rankOf(NodeId node)
    {
        if (node == kControlNode)
            return 0; // control context sorts first at equal time
        always_assert(node < 0xfffeu, "node id exceeds key rank space");
        return node + 1;
    }

    static NodeId
    nodeOfRank(std::uint32_t rank)
    {
        return rank == 0 ? kControlNode : NodeId(rank - 1);
    }

    /** Draw the next key of @p c's node (the control stream outside any
     *  event), after replaying that node's parked polls that precede
     *  the running event. */
    std::uint64_t
    drawKey(const ExecContext *c)
    {
        const std::uint32_t rank = rankOf(c ? c->node : kControlNode);
        if (rank >= seqByRank_.size()) {
            always_assert(!threadedActive(),
                          "unplanned node rank in threaded mode");
            seqByRank_.resize(rank + 1);
        }
        if (seqByRank_[rank].parked && c)
            replay(rank, c->now, c->key);
        return takeKey(rank);
    }

    std::uint64_t
    takeKey(std::uint32_t rank)
    {
        const std::uint64_t seq = seqByRank_[rank].next++;
        always_assert(seq < (std::uint64_t{1} << kSeqBits),
                      "per-node sequence overflow");
        return (std::uint64_t{rank} << kSeqBits) | seq;
    }

    // --- Parked polls -------------------------------------------------------
    /** Push the next poll of @p p, parked by node rank @p rank, into its
     *  lane's heap: it runs for real at its own (tick, key). */
    void
    realize(std::uint32_t rank, const ParkedPoll &p)
    {
        const NodeId node = nodeOfRank(rank);
        pushLane(lanes_[laneOf(node, shards_)], p.when, p.key, node,
                 [h = p.waiter] { h.resume(); });
    }

    /** Unlink the poll at @p link from node rank @p rank's list. */
    void
    unpark(std::uint32_t rank, ParkedPoll **link)
    {
        *link = (*link)->next;
        Lane &l = lanes_[laneOf(nodeOfRank(rank), shards_)];
        if (--l.parked == 0)
            l.parkDeadline = kTickMax;
    }

    /**
     * Replay, in key order, the polls parked by node rank @p rank that
     * precede (@p when, @p key): each counts as an event and draws the
     * key of its successor, and a successor that may not be replayed
     * goes to the heap. The caller guarantees that no pending event of
     * that node precedes the bound, so these are exactly the draws the
     * Delay loop would have made there.
     */
    void
    replay(std::uint32_t rank, Tick when, std::uint64_t key)
    {
        SeqCounter &s = seqByRank_[rank];
        Lane &l = lanes_[laneOf(nodeOfRank(rank), shards_)];
        for (;;) {
            ParkedPoll **first = nullptr;
            for (ParkedPoll **link = &s.parked; *link;
                 link = &(*link)->next) {
                const ParkedPoll &p = **link;
                if (!first || p.when < (*first)->when ||
                    (p.when == (*first)->when && p.key < (*first)->key))
                    first = link;
            }
            if (!first)
                return;
            ParkedPoll &p = **first;
            if (p.when > when || (p.when == when && p.key >= key))
                return;
            ++l.eventsRun;
            ++p.replayed;
            p.when += p.period;
            p.key = takeKey(rank);
            if (p.replayed == p.maxReplayed) {
                unpark(rank, first);
                realize(rank, p);
            }
        }
    }

    /** wakeParked(): the running event may have changed the condition
     *  of node @p node's parked polls (those tagged @p tag if
     *  @p matchTag). */
    void
    wake(NodeId node, bool matchTag, std::uint64_t tag)
    {
        const std::uint32_t rank = rankOf(node);
        if (rank >= seqByRank_.size() || !seqByRank_[rank].parked)
            return;
        const ExecContext *c = current();
        always_assert(!threadedActive() ||
                          (c && c->lane == laneOf(node, shards_)),
                      "parked polls woken from another lane");
        if (c)
            replay(rank, c->now, c->key);
        for (ParkedPoll **link = &seqByRank_[rank].parked; *link;) {
            ParkedPoll &p = **link;
            if (matchTag && p.tag != tag) {
                link = &p.next;
                continue;
            }
            unpark(rank, link);
            realize(rank, p);
        }
    }

    /** Call @p fn with every node rank of lane @p lane. */
    template <class Fn>
    void
    forEachRankOf(std::uint32_t lane, Fn &&fn)
    {
        if (lane == 0)
            fn(0u);
        for (std::size_t r = std::size_t{lane} + 1; r < seqByRank_.size();
             r += shards_)
            fn(std::uint32_t(r));
    }

    /**
     * Send to the heap every poll parked on lane @p lane that must run
     * for real at or before @p next, the earliest pending event (every
     * earlier event has run, so replaying up to a deadline is exact),
     * and make the lane's parkDeadline exact again.
     */
    void
    expireParked(std::uint32_t lane, Tick next)
    {
        Tick earliest = kTickMax;
        forEachRankOf(lane, [&](std::uint32_t rank) {
            // A poll sent to the heap is the node's earliest pending
            // event: replay no further than its tick.
            Tick bound = next;
            while (seqByRank_[rank].parked) {
                Tick due = kTickMax;
                for (const ParkedPoll *p = seqByRank_[rank].parked; p;
                     p = p->next)
                    due = std::min(due, p->deadline());
                if (due > bound) {
                    earliest = std::min(earliest, due);
                    return;
                }
                replay(rank, due, 0);
                bound = due;
            }
        });
        lanes_[lane].parkDeadline = earliest;
    }

    /** Replay every parked poll that precedes (@p when, @p key), so a
     *  run that stops early leaves exact event counts. Single-threaded
     *  executors only. */
    void
    settleParked(Tick when, std::uint64_t key)
    {
        for (std::uint32_t rank = 0; rank < seqByRank_.size(); ++rank)
            if (seqByRank_[rank].parked)
                replay(rank, when, key);
    }

    /** The tick of the first poll of lane @p lane's parked polls at or
     *  after @p from: where the Delay loop's pending poll would sit. */
    Tick
    nextParkedPoll(std::uint32_t lane, Tick from)
    {
        Tick t = kTickMax;
        forEachRankOf(lane, [&](std::uint32_t rank) {
            for (const ParkedPoll *p = seqByRank_[rank].parked; p;
                 p = p->next) {
                Tick w = p->when;
                if (w < from)
                    w += (from - w + p->period - 1) / p->period * p->period;
                t = std::min(t, w);
            }
        });
        return t;
    }

    /** Earliest-first strict weak ordering:
     *  (when, source-node, source-seq) lexicographic. */
    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    void
    pushLane(Lane &l, Tick when, std::uint64_t key, NodeId exec,
             Callback fn)
    {
        std::uint32_t slot;
        if (!l.freeSlots.empty()) {
            slot = l.freeSlots.back();
            l.freeSlots.pop_back();
            l.slots[slot] = std::move(fn);
        } else {
            slot = static_cast<std::uint32_t>(l.slots.size());
            l.slots.push_back(std::move(fn));
        }
        l.heap.push_back(HeapEntry{when, key, slot, exec});
        siftUp(l.heap, l.heap.size() - 1);
    }

    static void
    siftUp(std::vector<HeapEntry> &heap, std::size_t i)
    {
        const HeapEntry e = heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(e, heap[parent]))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = e;
    }

    static void
    siftDown(std::vector<HeapEntry> &heap, std::size_t i)
    {
        const std::size_t n = heap.size();
        const HeapEntry e = heap[i];
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && earlier(heap[child + 1], heap[child]))
                ++child;
            if (!earlier(heap[child], e))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = e;
    }

    static void
    popTop(std::vector<HeapEntry> &heap)
    {
        heap.front() = heap.back();
        heap.pop_back();
        if (!heap.empty())
            siftDown(heap, 0);
    }

    /** Pop and execute the front of @p l under context @p ctx. */
    void
    execTop(Lane &l, ExecContext &ctx)
    {
        const HeapEntry top = l.heap.front();
        popTop(l.heap);
        // Move the closure out of the arena before invoking it: the
        // callback may schedule new events, which can grow the arena
        // and invalidate references into it.
        Callback fn = std::move(l.slots[top.slot]);
        l.freeSlots.push_back(top.slot);
        ctx.now = top.when;
        ctx.node = top.exec;
        ctx.key = top.key;
        ++l.eventsRun;
        fn();
    }

    bool
    stoppedNow() const
    {
        return stopped_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    totalScheduled() const
    {
        std::uint64_t n = 0;
        for (const SeqCounter &s : seqByRank_)
            n += s.next;
        return n;
    }

    std::vector<Mail> &
    mailbox(std::uint32_t src, std::uint32_t dst)
    {
        return mail_[std::size_t{src} * shards_ + dst].items;
    }

    bool
    anyMail() const
    {
        for (const Mailbox &box : mail_)
            if (!box.items.empty())
                return true;
        return false;
    }

    /** Move every mailbox item into its destination lane heap, in fixed
     *  (src, dst) order. Runs while no lane executes (deterministic
     *  merge loop, or the threaded barrier's completion step). */
    void
    drainMailboxes()
    {
        for (std::uint32_t src = 0; src < shards_; ++src) {
            for (std::uint32_t dst = 0; dst < shards_; ++dst) {
                std::vector<Mail> &box = mailbox(src, dst);
                for (Mail &m : box)
                    pushLane(lanes_[dst], m.when, m.key, m.exec,
                             std::move(m.fn));
                box.clear();
            }
        }
    }

    /** Cross one conservative window barrier. */
    void
    advanceWindow()
    {
        drainMailboxes();
        windowEnd_ += windowTicks_;
        ++barriers_;
    }

    // --- Serial oracle ----------------------------------------------------
    bool
    runSerial(Tick maxTime)
    {
        Lane &l = lanes_[0];
        ExecContext ctx{this, 0, now_, kControlNode};
        CtxScope scope(&ctx);
        const Tick horizon = maxTime >= 0 ? maxTime : kTickMax;
        while (!stoppedNow()) {
            const Tick next = l.heap.empty() ? kTickMax : l.heap.front().when;
            if (l.parked != 0 && std::min(next, horizon) >= l.parkDeadline) {
                expireParked(0, std::min(next, horizon));
                continue;
            }
            if (l.heap.empty() && l.parked == 0)
                break; // drained
            if (next > horizon) {
                settleParked(horizon + 1, 0);
                now_ = maxTime;
                return false;
            }
            execTop(l, ctx);
        }
        settleParked(ctx.now, ctx.key);
        now_ = ctx.now;
        return empty();
    }

    // --- Sharded deterministic merge --------------------------------------
    bool
    runShardedDet(Tick maxTime)
    {
        ExecContext ctx{this, 0, now_, kControlNode};
        CtxScope scope(&ctx);
        const Tick horizon = maxTime >= 0 ? maxTime : kTickMax;
        while (!stoppedNow()) {
            int best = -1;
            Tick due = kTickMax;
            for (std::size_t i = 0; i < lanes_.size(); ++i) {
                due = std::min(due, lanes_[i].parkDeadline);
                if (lanes_[i].heap.empty())
                    continue;
                if (best < 0 || earlier(lanes_[i].heap.front(),
                                        lanes_[best].heap.front()))
                    best = int(i);
            }
            if (best < 0) {
                if (anyMail()) {
                    // Conservative advance: one barrier per window, no
                    // skipping, so the barrier count matches the
                    // horizon.
                    advanceWindow();
                    continue;
                }
                if (due == kTickMax)
                    break; // fully drained
            }
            const Tick next =
                best < 0 ? kTickMax : lanes_[best].heap.front().when;
            if (next < kTickMax && next >= windowEnd_) {
                advanceWindow();
                continue;
            }
            const Tick bound = std::min(next, horizon);
            if (due != kTickMax && bound >= due) {
                for (std::uint32_t i = 0; i < shards_; ++i)
                    if (lanes_[i].parkDeadline <= bound)
                        expireParked(i, bound);
                continue;
            }
            if (next > horizon) {
                settleParked(horizon + 1, 0);
                now_ = maxTime;
                return false;
            }
            ctx.lane = std::uint32_t(best);
            execTop(lanes_[best], ctx);
        }
        settleParked(ctx.now, ctx.key);
        now_ = ctx.now;
        return empty();
    }

    // --- Sharded threaded execution ---------------------------------------
    /** Bounds of a waiting lane's spin, in pause iterations, not time:
     *  the kernel reads no clock. */
    static constexpr unsigned kSpinIterations = 1u << 12;
    static constexpr unsigned kMinSpinIterations = kSpinIterations >> 6;

    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#endif
    }

    /** CPUs this process may run on (its affinity mask where the
     *  platform exposes one). */
    static unsigned
    usableCpus()
    {
#if defined(__linux__)
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            return unsigned(CPU_COUNT(&set));
#endif
        return std::max(1u, std::thread::hardware_concurrency());
    }

    /**
     * The per-window rendezvous of the threaded executor. The last lane
     * to arrive runs the completion step alone, while every other lane
     * waits, then releases them by bumping the generation. A waiter
     * spins for up to its lane's spin budget of pause iterations, then
     * parks on the generation counter. The budget adapts: it doubles
     * (up to kSpinIterations) after a spin that ended the wait and
     * drops to a quarter (down to kMinSpinIterations) after one that
     * did not, so the spin tracks the usual wait and shrinks when lanes
     * get preempted -- by other processes or by the host of a virtual
     * machine -- where a spinning waiter would steal the core of the
     * lane it waits for. Waiters never spin when the lanes outnumber
     * the CPUs.
     */
    class WindowBarrier
    {
      public:
        WindowBarrier(std::uint32_t parties, bool spin)
            : parties_(parties), spin_(spin)
        {
        }

        template <class Completion>
        void
        arriveAndWait(Completion &&completion, unsigned &spinBudget)
        {
            // Exact: the generation cannot move until this lane arrives.
            const std::uint32_t gen =
                generation_.load(std::memory_order_relaxed);
            // acq_rel: the last arriver acquires every lane's window
            // writes (heaps, mailboxes) through the release sequence.
            if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                parties_) {
                arrived_.store(0, std::memory_order_relaxed);
                completion();
                // seq_cst, not release: notify_all may skip the wake when
                // it reads no parked waiter, and a release store could be
                // reordered after that read, losing the wake of a lane
                // that parked in between.
                generation_.store(gen + 1, std::memory_order_seq_cst);
                generation_.notify_all();
                return;
            }
            if (spin_) {
                for (unsigned i = 0; i < spinBudget; ++i) {
                    if (generation_.load(std::memory_order_acquire) !=
                        gen) {
                        spinBudget =
                            std::min(spinBudget * 2, kSpinIterations);
                        return;
                    }
                    cpuRelax();
                }
                spinBudget = std::max(spinBudget / 4, kMinSpinIterations);
            }
            while (generation_.load(std::memory_order_seq_cst) == gen)
                generation_.wait(gen, std::memory_order_seq_cst);
        }

      private:
        alignas(64) std::atomic<std::uint32_t> arrived_{0};
        alignas(64) std::atomic<std::uint32_t> generation_{0};
        const std::uint32_t parties_;
        const bool spin_;
    };

    /** One lane's share of a window: execute own-heap events strictly
     *  inside the window, in key order. */
    void
    runLaneWindow(std::uint32_t lane, ExecContext &ctx)
    {
        Lane &l = lanes_[lane];
        while (!stoppedNow()) {
            const Tick next =
                l.heap.empty() ? kTickMax : l.heap.front().when;
            if (next >= l.parkDeadline && l.parkDeadline < windowEnd_) {
                expireParked(lane, std::min(next, windowEnd_ - 1));
                continue;
            }
            if (next >= windowEnd_)
                break;
            execTop(l, ctx);
        }
        l.lastNow = ctx.now;
    }

    /**
     * The exclusive step between threaded windows: drain the mailboxes
     * and open the window [t_min, t_min + W) at the earliest pending
     * event, skipping idle time. Skipping keeps the lookahead argument:
     * a cross-lane send from an event at t >= t_min lands at
     * t + W >= windowEnd_. A lane-closed run opens one unbounded
     * window instead: its lanes never send to each other, and a send
     * that would break that promise still hits the lookahead panic in
     * scheduleAtAs(). Runs on whichever lane arrived last, so it must
     * not schedule events or read now(). Returns false once the run is
     * finished (nothing pending, or stop() requested).
     */
    bool
    openNextWindow()
    {
        drainMailboxes();
        bool pending = false;
        Tick tmin = 0;
        for (std::uint32_t i = 0; i < shards_; ++i) {
            const Lane &l = lanes_[i];
            // A parked poll's pending successor counts where the Delay
            // loop's heap event would, so windows open where they would
            // have.
            Tick when = l.parked ? nextParkedPoll(i, windowEnd_) : kTickMax;
            if (!l.heap.empty())
                when = std::min(when, l.heap.front().when);
            if (when == kTickMax)
                continue;
            tmin = pending ? std::min(tmin, when) : when;
            pending = true;
        }
        if (!pending || stoppedNow())
            return false;
        windowEnd_ = laneClosed_ ? kTickMax : tmin + windowTicks_;
        return true;
    }

    /** One lane's thread body: execute a window, meet the others at the
     *  barrier, repeat until the completion step declares the run done.
     *  noexcept: an exception escaping a lane terminates the process. */
    void
    laneLoop(std::uint32_t lane, WindowBarrier &sync, bool &done) noexcept
    {
        ExecContext ctx{this, lane, lanes_[lane].lastNow, kControlNode};
        CtxScope scope(&ctx);
        unsigned spinBudget = kSpinIterations;
        do {
            runLaneWindow(lane, ctx);
            sync.arriveAndWait(
                [this, &done] {
                    if (openNextWindow())
                        ++barriers_;
                    else
                        done = true;
                },
                spinBudget);
        } while (!done);
    }

    bool
    runThreaded(Tick maxTime)
    {
        always_assert(maxTime < 0,
                      "threaded sharded runs execute to completion");
        if (openNextWindow()) {
            threadedActive_.store(true, std::memory_order_release);
            // `done` is written only by the completion step and read
            // after the barrier, which orders both.
            bool done = false;
            // On the heap, not the stack: freed into the calling
            // thread's malloc cache, the barrier's block stays above the
            // run's memory and keeps glibc from trimming the heap between
            // runs. With a stack barrier, back-to-back runs re-faulted
            // their ~220 MB (tpcc-local) each time, quadrupling the host
            // time of a zero-transaction run.
            const auto sync = std::make_unique<WindowBarrier>(
                shards_, shards_ <= usableCpus());
            std::vector<std::thread> workers;
            workers.reserve(shards_ - 1);
            for (std::uint32_t lane = 1; lane < shards_; ++lane)
                workers.emplace_back([this, lane, &sync, &done] {
                    laneLoop(lane, *sync, done);
                });
            laneLoop(0, *sync, done);
            for (std::thread &w : workers)
                w.join();
            threadedActive_.store(false, std::memory_order_release);
        }
        Tick end = now_;
        for (const Lane &l : lanes_)
            end = std::max(end, l.lastNow);
        now_ = end;
        return empty();
    }

    static thread_local ExecContext *tlsCtx_;

    std::vector<Lane> lanes_;
    /** mail_[src * shards + dst]: cross-lane events awaiting the next
     *  barrier. */
    std::vector<Mailbox> mail_;
    /** Per-source-node sequence streams, indexed by key rank. */
    std::vector<SeqCounter> seqByRank_;

    std::uint32_t shards_ = 1;
    bool threaded_ = false;
    bool laneClosed_ = false;
    Tick windowTicks_ = 0;
    Tick windowEnd_ = 0;
    std::uint64_t barriers_ = 0;

    Tick now_ = 0;
    std::atomic<bool> stopped_{false};
    std::atomic<bool> threadedActive_{false};
    std::atomic<bool> rerunRequested_{false};
};

inline thread_local Kernel::ExecContext *Kernel::tlsCtx_ = nullptr;

} // namespace hades::sim

#endif // HADES_SIM_KERNEL_HH_
