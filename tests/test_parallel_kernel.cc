/**
 * @file
 * Differential and property tests for the sharded parallel DES kernel
 * (PR 6 tentpole contract, widened by the PR 8 threaded messaging
 * path).
 *
 * The contract under test: RunSpec::shards selects an *executor*, not
 * a model. Any shard count must reproduce the serial oracle's
 * RunResult bit-for-bit -- across engines, workloads, fault plans,
 * crash recovery, CM failover, and the correctness auditor. With the
 * messaging path lane-safe (per-lane NIC port state, window-delayed
 * cross-lane delivery), that same contract now extends to *worker
 * threads* for fault-free unaudited messaging workloads. The first
 * half of this file checks the window scheduler's own invariants on
 * synthetic event graphs; the second half runs the differential
 * matrices through the full simulator and compares FNV digests of the
 * complete result (src/core/result_hash.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/result_hash.hh"
#include "core/runner.hh"
#include "net/network.hh"
#include "sim/kernel.hh"
#include "sim/task.hh"

namespace
{

using namespace hades;
using hades::core::hashResult;

// ===========================================================================
// Window-scheduler property tests (synthetic kernels, no model)
// ===========================================================================

void
configureSharded(sim::Kernel &k, std::uint32_t shards,
                 std::uint32_t nodes, Tick window, bool threaded)
{
    sim::ShardPlan plan;
    plan.shards = shards;
    plan.numNodes = nodes;
    plan.windowTicks = window;
    plan.threaded = threaded;
    k.configureSharding(plan);
}

TEST(ShardProperty, LaneAssignmentIsAPureFunctionOfNodeId)
{
    // Shard placement must not depend on anything but (node, shards):
    // no hashing of pointers, no registration order, no thread ids.
    for (std::uint32_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
        for (NodeId n = 0; n < 200; ++n) {
            const auto lane = sim::Kernel::laneOf(n, shards);
            EXPECT_EQ(lane, n % shards);
            EXPECT_EQ(lane, sim::Kernel::laneOf(n, shards))
                << "laneOf must be referentially transparent";
            EXPECT_LT(lane, shards);
        }
        // The control rank (timers, drivers, harness events) always
        // lives on lane 0 so every executor agrees where it runs.
        EXPECT_EQ(sim::Kernel::laneOf(sim::kControlNode, shards), 0u);
    }
}

TEST(ShardProperty, NoEventRunsBeforeALowerTimestampCrossShardEvent)
{
    // A pseudo-random event cascade that hops nodes (and therefore
    // lanes) on every step, with deltas straddling the window size so
    // both the same-window direct path and the mailbox path are
    // exercised. The deterministic merge must still execute the
    // global event set in nondecreasing time order.
    constexpr Tick kWindow = 100;
    constexpr std::uint32_t kNodes = 8;
    sim::Kernel k;
    configureSharded(k, 4, kNodes, kWindow, false);

    std::vector<Tick> execTimes;
    std::uint64_t lcg = 12345;
    auto nextDelta = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return Tick(1 + (lcg >> 33) % 250); // 1..250, window is 100
    };

    std::function<void(NodeId, int)> hop = [&](NodeId node, int depth) {
        EXPECT_EQ(k.currentNode(), node);
        execTimes.push_back(k.now());
        if (depth >= 6)
            return;
        // Fan out to two other nodes; most hops change lanes.
        for (int i = 1; i <= 2; ++i) {
            NodeId dst = NodeId((node * 5 + i * 3 + depth) % kNodes);
            k.scheduleAs(dst, nextDelta(),
                         [&hop, dst, depth] { hop(dst, depth + 1); });
        }
    };

    for (NodeId n = 0; n < kNodes; ++n)
        k.scheduleAs(n, Tick(1 + n), [&hop, n] { hop(n, 0); });

    EXPECT_TRUE(k.run());
    ASSERT_GT(execTimes.size(), 100u);
    for (std::size_t i = 1; i < execTimes.size(); ++i)
        ASSERT_LE(execTimes[i - 1], execTimes[i])
            << "event " << i << " ran before a lower-timestamp event "
            << "(cross-shard merge violated global time order)";
    EXPECT_GT(k.crossShardEvents(), 0u)
        << "the cascade never actually changed lanes";
    EXPECT_EQ(k.eventsRun(), execTimes.size());
}

TEST(ShardProperty, BarrierCountMatchesHorizonOverWindow)
{
    // Conservative no-skip advancement: the deterministic executor
    // crosses every window boundary between 0 and the last event time
    // exactly once, so windowBarriers() == floor(lastWhen / window)
    // (equivalently, the final window end is the least multiple of the
    // window strictly above the horizon). The threaded executor skips
    // idle windows instead; see ThreadedExecutorSkipsIdleWindows.
    for (Tick window : {Tick(64), Tick(100), Tick(1000)}) {
        for (Tick step : {Tick(37), Tick(100), Tick(250)}) {
            sim::Kernel k;
            configureSharded(k, 2, 2, window, false);
            constexpr int kHops = 25;
            int hops = 0;
            std::function<void()> ping = [&] {
                if (++hops >= kHops)
                    return;
                NodeId dst = NodeId(hops % 2);
                k.scheduleAs(dst, step, ping);
            };
            k.scheduleAs(0, step, ping);
            EXPECT_TRUE(k.run());
            const Tick last = Tick(kHops) * step;
            EXPECT_EQ(k.now(), last);
            EXPECT_EQ(k.windowBarriers(),
                      std::uint64_t(last / window))
                << "window=" << window << " step=" << step;
        }
    }
}

TEST(ShardProperty, ThreadedCrossShardDeliveryIsExactlyOnceAndOrdered)
{
    // A strict ping-pong across the two lanes, one hop per window, so
    // every delivery crosses a mailbox and a barrier. Exactly-once,
    // exact timestamps, alternating nodes.
    constexpr Tick kWindow = 100;
    constexpr int kHops = 12;
    sim::Kernel k;
    configureSharded(k, 2, 2, kWindow, true);

    std::vector<std::pair<NodeId, Tick>> trace;
    int hops = 0;
    std::function<void()> ping = [&] {
        trace.emplace_back(k.currentNode(), k.now());
        if (++hops >= kHops)
            return;
        k.scheduleAs(NodeId(hops % 2), kWindow, ping);
    };
    k.scheduleAs(0, kWindow, ping);

    EXPECT_TRUE(k.run());
    ASSERT_EQ(trace.size(), std::size_t(kHops));
    for (int i = 0; i < kHops; ++i) {
        EXPECT_EQ(trace[i].first, NodeId(i % 2));
        EXPECT_EQ(trace[i].second, Tick(i + 1) * kWindow);
    }
    EXPECT_GE(k.windowBarriers(), std::uint64_t(kHops - 1));
    EXPECT_EQ(k.crossShardEvents(), std::uint64_t(kHops - 1));
}

TEST(ShardProperty, ThreadedAllToAllMailboxesDeliverExactlyOnceInOrder)
{
    // Every node floods every other node with sequenced messages, one
    // batch per window, under the threaded executor: all 56 (src,dst)
    // mailboxes are live at every barrier. Each message must
    // arrive exactly once, on the destination's lane, in global time
    // order per lane, and in FIFO send order per (src,dst) pair.
    constexpr Tick kWindow = 100;
    constexpr std::uint32_t kNodes = 8;
    constexpr int kRounds = 10;
    sim::Kernel k;
    configureSharded(k, 4, kNodes, kWindow, true);

    struct Delivery
    {
        NodeId src;
        Tick when;
        int seq;
    };
    // inbox[dst] is written only by dst's lane; sent[src][dst] is
    // bumped only by src's lane at send time. No cross-lane state.
    std::vector<std::vector<Delivery>> inbox(kNodes);
    std::array<std::array<int, kNodes>, kNodes> sent{};

    std::function<void(NodeId, int)> round = [&](NodeId src, int r) {
        EXPECT_EQ(k.currentNode(), src);
        if (r >= kRounds)
            return;
        for (NodeId dst = 0; dst < kNodes; ++dst) {
            if (dst == src)
                continue;
            const int seq = sent[src][dst]++;
            k.scheduleAs(dst, kWindow, [&, src, dst, seq] {
                inbox[dst].push_back({src, k.now(), seq});
            });
        }
        k.scheduleAs(src, kWindow,
                     [&round, src, r] { round(src, r + 1); });
    };
    for (NodeId n = 0; n < kNodes; ++n)
        k.scheduleAs(n, kWindow + n, [&round, n] { round(n, 0); });

    EXPECT_TRUE(k.run());

    std::size_t total = 0;
    for (NodeId dst = 0; dst < kNodes; ++dst) {
        total += inbox[dst].size();
        std::array<int, kNodes> nextSeq{};
        for (std::size_t i = 0; i < inbox[dst].size(); ++i) {
            const auto &d = inbox[dst][i];
            if (i > 0) {
                ASSERT_LE(inbox[dst][i - 1].when, d.when)
                    << "lane of node " << dst
                    << " ran deliveries out of time order";
            }
            ASSERT_EQ(d.seq, nextSeq[d.src]++)
                << "mailbox " << d.src << "->" << dst
                << " delivered out of send order (or dropped / "
                << "duplicated a message)";
        }
        for (NodeId src = 0; src < kNodes; ++src) {
            if (src != dst) {
                EXPECT_EQ(nextSeq[src], kRounds)
                    << "mailbox " << src << "->" << dst
                    << " lost messages";
            }
        }
    }
    EXPECT_EQ(total, std::size_t(kNodes) * (kNodes - 1) * kRounds);
    EXPECT_GT(k.crossShardEvents(), 0u);
}

TEST(ShardProperty, PerLaneNicPortStateIsIsolatedAcrossExecutors)
{
    // The same one-way messaging program through the real interconnect
    // model, serial vs threaded over 4 lanes. Each node's TX port and
    // statistics slot are lane-owned, so the per-node message/byte
    // telemetry -- and every arrival instant -- must be bit-identical
    // across executors. A lane leaking into another lane's port state
    // would skew serialization timing or the per-node counters.
    constexpr std::uint32_t kNodes = 8;
    constexpr int kMsgs = 12;
    ClusterConfig cfg;
    cfg.numNodes = kNodes;

    struct Snapshot
    {
        std::vector<std::uint64_t> msgs, bytes;
        std::vector<std::vector<Tick>> arrivals;
        Tick end = 0;
    };
    auto runOnce = [&](bool threaded) {
        sim::Kernel k;
        if (threaded)
            configureSharded(k, 4, kNodes, cfg.netRoundTrip / 2, true);
        net::Network net(k, cfg);
        Snapshot s;
        s.arrivals.resize(kNodes);
        for (NodeId src = 0; src < kNodes; ++src) {
            for (int i = 0; i < kMsgs; ++i) {
                // Sends must originate on the sender's lane; the
                // kick-off delay clears the first window barrier.
                k.scheduleAs(src, us(1) * (1 + i) + Tick(src) * 100,
                             [&, src, i] {
                    NodeId dst = NodeId((src + 1 + i) % kNodes);
                    if (dst == src)
                        dst = (dst + 1) % kNodes;
                    net.post(net::MsgType::Validation, src, dst,
                             32 + 16 * (i % 5), [&s, dst, &k] {
                                 s.arrivals[dst].push_back(k.now());
                             });
                });
            }
        }
        EXPECT_TRUE(k.run());
        for (NodeId n = 0; n < kNodes; ++n) {
            s.msgs.push_back(net.nodeMessages(n));
            s.bytes.push_back(net.nodeBytes(n));
        }
        s.end = k.now();
        EXPECT_EQ(net.totalMessages(), std::uint64_t(kNodes) * kMsgs);
        return s;
    };

    const auto serial = runOnce(false);
    const auto threaded = runOnce(true);
    EXPECT_EQ(serial.end, threaded.end);
    for (NodeId n = 0; n < kNodes; ++n) {
        EXPECT_GT(serial.msgs[n], 0u) << "node " << n << " never sent";
        EXPECT_EQ(serial.msgs[n], threaded.msgs[n])
            << "per-node message count diverged at node " << n;
        EXPECT_EQ(serial.bytes[n], threaded.bytes[n])
            << "per-node byte count diverged at node " << n;
        EXPECT_EQ(serial.arrivals[n], threaded.arrivals[n])
            << "arrival schedule diverged at node " << n;
    }
}

TEST(ShardProperty, ThreadedExecutorSkipsIdleWindows)
{
    // Sparse traffic: the first events land a thousand windows in, and
    // every hop crosses lanes after a gap of at least ten windows. The
    // threaded executor opens each window at the earliest pending
    // event, so it crosses fewer barriers than the horizon holds
    // windows, yet every lane must execute exactly the deterministic
    // executor's event sequence.
    constexpr Tick kWindow = 100;
    constexpr std::uint32_t kNodes = 8;
    constexpr std::uint32_t kShards = 4;
    constexpr int kHops = 40;
    using Trace = std::vector<std::vector<std::pair<NodeId, Tick>>>;

    struct Outcome
    {
        Trace trace;
        std::uint64_t barriers = 0;
        Tick last = 0;
    };
    auto runOnce = [&](bool threaded) {
        sim::Kernel k;
        configureSharded(k, kShards, kNodes, kWindow, threaded);
        Outcome out;
        // trace[lane] and lcg[node] are touched only by their own lane.
        out.trace.resize(kShards);
        std::array<std::uint64_t, kNodes> lcg{};
        for (NodeId n = 0; n < kNodes; ++n)
            lcg[n] = n + 1;
        std::function<void(int)> hop = [&](int depth) {
            const NodeId node = k.currentNode();
            out.trace[sim::Kernel::laneOf(node, kShards)].emplace_back(
                node, k.now());
            if (depth >= kHops)
                return;
            std::uint64_t &s = lcg[node];
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            const Tick gap = 10 * kWindow + Tick((s >> 33) % (7 * kWindow));
            // node + 1 or node + 3: always a different lane of four.
            const NodeId dst = NodeId((node + 1 + 2 * (s >> 63)) % kNodes);
            k.scheduleAs(dst, gap, [&hop, depth] { hop(depth + 1); });
        };
        for (NodeId n = 0; n < kNodes; ++n)
            k.scheduleAs(n, 1000 * kWindow + 3 * Tick(n),
                         [&hop] { hop(0); });
        EXPECT_TRUE(k.run());
        out.barriers = k.windowBarriers();
        out.last = k.now();
        return out;
    };

    const Outcome det = runOnce(false);
    const Outcome thr = runOnce(true);
    std::size_t events = 0;
    for (std::uint32_t lane = 0; lane < kShards; ++lane) {
        events += det.trace[lane].size();
        EXPECT_EQ(det.trace[lane], thr.trace[lane])
            << "lane " << lane << " diverged from the deterministic "
            << "executor";
    }
    EXPECT_EQ(events, std::size_t(kNodes) * (kHops + 1));
    EXPECT_EQ(det.last, thr.last);
    const auto horizonWindows = std::uint64_t(det.last / kWindow);
    EXPECT_EQ(det.barriers, horizonWindows);
    EXPECT_LT(thr.barriers, horizonWindows)
        << "the threaded executor stepped through idle windows";
}

TEST(ShardProperty, ThreadedBarrierStressDeliversExactlyOnceInOrder)
{
    // Ten thousand one-tick windows with mail between every node pair,
    // at 2, 4 and 8 lanes: each round every node sends one sequenced
    // message to a rotating destination, so all 56 (src,dst) pairs carry
    // traffic every 7 windows. Eight lanes outnumber the CPUs of small
    // hosts, which exercises the barrier's park path. Every message must
    // arrive exactly once and in FIFO order per pair, and the threaded
    // run must use one thread per lane, lane 0 on the calling thread.
    constexpr Tick kWindow = 1;
    constexpr std::uint32_t kNodes = 8;
    constexpr int kRounds = 10000;
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        sim::Kernel k;
        configureSharded(k, shards, kNodes, kWindow, true);

        // inbox[dst] is written only by dst's lane, sent[src] only by
        // src's lane, laneThread[lane] only by that lane.
        std::vector<std::vector<std::pair<NodeId, int>>> inbox(kNodes);
        std::array<std::array<int, kNodes>, kNodes> sent{};
        std::vector<std::thread::id> laneThread(shards);

        std::function<void(NodeId, int)> round = [&](NodeId src, int r) {
            laneThread[sim::Kernel::laneOf(src, shards)] =
                std::this_thread::get_id();
            if (r >= kRounds)
                return;
            const NodeId dst =
                NodeId((src + 1 + r % (kNodes - 1)) % kNodes);
            const int seq = sent[src][dst]++;
            k.scheduleAs(dst, kWindow, [&inbox, src, dst, seq] {
                inbox[dst].emplace_back(src, seq);
            });
            k.scheduleAs(src, kWindow,
                         [&round, src, r] { round(src, r + 1); });
        };
        for (NodeId n = 0; n < kNodes; ++n)
            k.scheduleAs(n, kWindow, [&round, n] { round(n, 0); });

        EXPECT_TRUE(k.run());
        EXPECT_GE(k.windowBarriers(), std::uint64_t(kRounds))
            << "shards=" << shards;

        std::size_t total = 0;
        for (NodeId dst = 0; dst < kNodes; ++dst) {
            total += inbox[dst].size();
            std::array<int, kNodes> nextSeq{};
            for (const auto &[src, seq] : inbox[dst])
                ASSERT_EQ(seq, nextSeq[src]++)
                    << "shards=" << shards << " pair " << src << "->"
                    << dst << " dropped, duplicated or reordered mail";
            for (NodeId src = 0; src < kNodes; ++src)
                EXPECT_EQ(nextSeq[src], sent[src][dst])
                    << "shards=" << shards << " pair " << src << "->"
                    << dst << " lost mail";
        }
        EXPECT_EQ(total, std::size_t(kNodes) * kRounds);

        EXPECT_EQ(laneThread[0], std::this_thread::get_id())
            << "lane 0 must run on the calling thread";
        std::vector<std::thread::id> distinct = laneThread;
        std::sort(distinct.begin(), distinct.end());
        EXPECT_EQ(std::unique(distinct.begin(), distinct.end()) -
                      distinct.begin(),
                  std::ptrdiff_t(shards))
            << "a threaded run uses exactly one thread per lane";
    }
}

TEST(ShardPropertyDeathTest, ThreadedLookaheadViolationIsRefused)
{
    // The 2us NIC round trip is the lookahead floor: a cross-shard
    // event inside the current window would race the other lane's
    // execution, so the kernel must refuse it loudly rather than
    // silently diverge. (Only reachable through a model bug; the
    // runner certifies window <= RT/2 before enabling threads.)
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            sim::Kernel k;
            configureSharded(k, 2, 2, Tick(100), true);
            k.scheduleAs(0, 10, [&k] {
                // now=10, window end=100: a hop landing at 20 is
                // inside the window -> lookahead violation.
                k.scheduleAs(1, 10, [] {});
            });
            k.run();
        },
        "lookahead violated");
}

TEST(ShardPropertyDeathTest, LaneClosedCrossLaneSendIsRefused)
{
    // A lane-closed run has one unbounded window, so every cross-lane
    // send lands inside it -- even one far beyond the lookahead, which
    // an ordinary threaded run would deliver at a barrier. A wrong
    // lane-closure certificate therefore fails loudly.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            sim::Kernel k;
            sim::ShardPlan plan;
            plan.shards = 2;
            plan.numNodes = 2;
            plan.windowTicks = 100;
            plan.threaded = true;
            plan.laneClosed = true;
            k.configureSharding(plan);
            k.scheduleAs(0, 10, [&k] { k.scheduleAs(1, 100000, [] {}); });
            k.run();
        },
        "lookahead violated");
}

// ===========================================================================
// Parked polls against the Delay loops they replace
// ===========================================================================

/** One event of a poll-model run: where it sat in the total order, and
 *  what it did. */
struct PollTraceEntry
{
    Tick when;
    std::uint64_t key;
    NodeId exec;
    int what;

    friend bool operator==(const PollTraceEntry &,
                           const PollTraceEntry &) = default;
};

/** Everything a poll-model run leaves that parking must not change. */
struct PollRun
{
    std::vector<std::vector<PollTraceEntry>> traces; //!< one per node
    std::uint64_t events = 0;
    std::uint64_t polls = 0; //!< as the pollers counted them
    std::uint64_t barriers = 0;
    std::uint64_t crossShard = 0;
    Tick end = 0;
};

/** The executor a poll-model run uses. */
struct PollExecutor
{
    std::uint32_t shards;
    bool threaded;
};

/**
 * A synthetic model of directory stalls. Each node runs pollers that,
 * whenever the node is blocked, wait for it to clear -- with a Delay
 * loop or with ParkedDelay -- and a chain of background events that
 * block and release nodes, squash pollers and kill nodes at random,
 * with delays drawn so that ticks tie often (with each other and with
 * poll ticks). Every change of a poller's condition calls the wake
 * that matches it; in the Delay variant nothing is parked, so the
 * wakes do nothing. Each node's state and trace are touched only by
 * its own events unless crossNode allows releases of other nodes
 * (single-threaded executors only).
 */
class PollModel
{
  public:
    static constexpr Tick kPeriod = 2;
    static constexpr Tick kWindow = 40;
    static constexpr std::uint64_t kMaxPolls = 24;
    static constexpr std::uint32_t kPollers = 3;
    static constexpr int kRounds = 30;
    static constexpr int kBackground = 200;

    enum What
    {
        Background,
        Pass,
        GaveUp,
        Squashed,
        Died,
    };

    PollModel(std::uint32_t nodes, bool parked, bool crossNode,
              std::uint64_t seed)
        : nodes_(nodes), parked_(parked), crossNode_(crossNode),
          blockers_(nodes, 0), dead_(nodes, 0),
          squashed_(nodes, std::vector<char>(kPollers, 0)),
          traces_(nodes), rng_(nodes), polls_(nodes, 0)
    {
        for (NodeId n = 0; n < nodes; ++n)
            rng_[n] = seed * 0x9e3779b97f4a7c15ULL + n + 1;
    }

    PollRun
    run(const PollExecutor &ex)
    {
        if (ex.shards > 1) {
            sim::ShardPlan plan;
            plan.shards = ex.shards;
            plan.numNodes = nodes_;
            plan.windowTicks = kWindow;
            plan.threaded = ex.threaded;
            k_.configureSharding(plan);
        }
        for (NodeId n = 0; n < nodes_; ++n) {
            // A node starts blocked half the time, so pollers stall at
            // t = 0 too.
            blockers_[n] = n % 2;
            if (blockers_[n])
                k_.scheduleAs(n, Tick(5 + 3 * n), [this, n] { release(n); });
            for (std::uint32_t j = 0; j < kPollers; ++j)
                poller(n, j);
            k_.scheduleAs(n, Tick(n), [this, n] { background(n, 0); });
        }
        EXPECT_TRUE(k_.run());
        PollRun out;
        out.traces = traces_;
        out.events = k_.eventsRun();
        for (std::uint64_t p : polls_)
            out.polls += p;
        out.barriers = k_.windowBarriers();
        out.crossShard = k_.crossShardEvents();
        out.end = k_.now();
        return out;
    }

  private:
    std::uint64_t
    draw(NodeId n)
    {
        std::uint64_t &x = rng_[n];
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 33;
    }

    void
    record(NodeId n, What what)
    {
        EXPECT_EQ(k_.currentNode(), n);
        traces_[n].push_back(
            PollTraceEntry{k_.now(), k_.currentKey(), n, int(what)});
    }

    void
    release(NodeId n)
    {
        --blockers_[n];
        // Every release wakes, as the Locking Buffer bank's hook does:
        // a release that leaves the node blocked makes woken polls
        // park again.
        k_.wakeParked(n);
    }

    std::uint64_t tag(NodeId n, std::uint32_t j) const
    {
        return std::uint64_t{n} * kPollers + j;
    }

    sim::DetachedTask
    poller(NodeId n, std::uint32_t j)
    {
        co_await sim::HopTo{k_, n};
        for (int round = 0; round < kRounds; ++round) {
            co_await sim::Delay{k_, Tick(draw(n) % 16 * 6)};
            if (blockers_[n] > 0) {
                std::uint64_t polls = 0;
                do {
                    const std::uint64_t before = polls;
                    if (parked_) {
                        // An exit already open when the poller parks has
                        // had its wake: the next poll must run for real.
                        const bool exiting = dead_[n] || squashed_[n][j];
                        polls += co_await sim::ParkedDelay{
                            k_, kPeriod, tag(n, j),
                            exiting ? 1 : kMaxPolls - polls};
                    } else {
                        co_await sim::Delay{k_, kPeriod};
                        ++polls;
                    }
                    polls_[n] += polls - before;
                    if (dead_[n]) {
                        record(n, Died);
                        co_return;
                    }
                    if (squashed_[n][j]) {
                        squashed_[n][j] = 0;
                        record(n, Squashed);
                        break;
                    }
                    if (polls >= kMaxPolls) {
                        record(n, GaveUp);
                        break;
                    }
                } while (blockers_[n] > 0);
            }
            record(n, Pass);
        }
    }

    void
    background(NodeId n, int step)
    {
        record(n, Background);
        static constexpr Tick kDelays[] = {0, 1, 2, 4, 4, 8, 12, 3};
        const std::uint64_t r = draw(n);
        switch (r % 16) {
          case 0:
          case 1:
          case 2:
          case 3:
          case 4:
          case 5:
            // Block this node for a while; the release is an event of
            // its own, at a tick that often is a poll tick.
            ++blockers_[n];
            k_.schedule(4 * (kDelays[r / 16 % 8] + 4),
                        [this, n] { release(n); });
            break;
          case 6:
            if (blockers_[n] > 0)
                release(n);
            break;
          case 7: {
            const std::uint32_t j = std::uint32_t(r / 16 % kPollers);
            squashed_[n][j] = 1;
            k_.wakeParked(n, tag(n, j));
            break;
          }
          case 8:
            if (r / 16 % 30 == 0 && !dead_[n]) {
                dead_[n] = 1;
                k_.wakeParked(n);
            }
            break;
          case 9:
            // Release another node from here: only the single-threaded
            // executors allow it.
            if (crossNode_) {
                const NodeId m = NodeId(r / 16 % nodes_);
                if (blockers_[m] > 0)
                    release(m);
            }
            break;
          default:
            break;
        }
        if (step + 1 >= kBackground)
            return;
        if (r % 5 == 0) {
            // A hop to another node, never inside the current window.
            const NodeId m = NodeId((n + 1 + r / 7 % nodes_) % nodes_);
            k_.scheduleAs(m, kWindow + Tick(r / 3 % 5),
                          [this, m, step] { background(m, step + 1); });
        } else {
            k_.schedule(kDelays[r / 5 % 8],
                        [this, n, step] { background(n, step + 1); });
        }
    }

    sim::Kernel k_;
    const std::uint32_t nodes_;
    const bool parked_;
    const bool crossNode_;
    std::vector<int> blockers_;
    std::vector<char> dead_;
    std::vector<std::vector<char>> squashed_;
    std::vector<std::vector<PollTraceEntry>> traces_;
    std::vector<std::uint64_t> rng_;
    std::vector<std::uint64_t> polls_;
};

void
expectSameRun(const PollRun &want, const PollRun &got, const char *what)
{
    ASSERT_EQ(want.traces.size(), got.traces.size());
    for (std::size_t n = 0; n < want.traces.size(); ++n)
        EXPECT_TRUE(want.traces[n] == got.traces[n])
            << what << ": node " << n << " traced differently";
    EXPECT_EQ(want.events, got.events) << what;
    EXPECT_EQ(want.polls, got.polls) << what;
    EXPECT_EQ(want.end, got.end) << what;
}

TEST(ParkedPoll, ReleaseAtAPollTickResumesWhereTheDelayLoopDoes)
{
    // A poller stalls at t = 0 with period 4; the release lands at
    // t = 8, a poll tick. A release scheduled at t = 0 sorts before the
    // poll at 8 (whose key the poll at 4 draws), so the poll at 8 passes;
    // one scheduled at t = 5 sorts after it, so the poll at 12 passes.
    for (const Tick scheduledAt : {Tick(0), Tick(5)}) {
        for (const bool parked : {false, true}) {
            sim::Kernel k;
            bool blocked = true;
            Tick passedAt = -1;
            std::uint64_t polls = 0;
            auto poll = [&]() -> sim::DetachedTask {
                co_await sim::HopTo{k, 0};
                while (blocked) {
                    if (parked) {
                        polls += co_await sim::ParkedDelay{k, 4, 0, 1000};
                    } else {
                        co_await sim::Delay{k, 4};
                        ++polls;
                    }
                }
                passedAt = k.now();
            };
            poll();
            k.scheduleAs(0, scheduledAt, [&] {
                k.schedule(8 - scheduledAt, [&] {
                    blocked = false;
                    k.wakeParked(0);
                });
            });
            EXPECT_TRUE(k.run());
            const Tick want = scheduledAt == 0 ? 8 : 12;
            EXPECT_EQ(passedAt, want) << "parked=" << parked;
            EXPECT_EQ(polls, std::uint64_t(want / 4));
            // HopTo, the two release events and the polls.
            EXPECT_EQ(k.eventsRun(), 3 + polls);
        }
    }
}

TEST(ParkedPoll, UnwokenPollRunsForRealAtItsLastPoll)
{
    // Nothing wakes the poller and the queue drains while it is parked:
    // the kernel still runs poll number maxPolls, at its own tick. A
    // run stopped at a horizon first counts the polls before it.
    sim::Kernel k;
    std::uint64_t polls = 0;
    Tick resumedAt = -1;
    auto poll = [&]() -> sim::DetachedTask {
        co_await sim::HopTo{k, 3};
        polls = co_await sim::ParkedDelay{k, 7, 0, 500};
        resumedAt = k.now();
    };
    poll();
    EXPECT_FALSE(k.run(100));
    EXPECT_EQ(k.eventsRun(), 1u + 100u / 7u);
    EXPECT_TRUE(k.run());
    EXPECT_EQ(polls, 500u);
    EXPECT_EQ(resumedAt, Tick(7 * 500));
    EXPECT_EQ(k.eventsRun(), 1u + 500u);
}

class ParkedPollDifferential
    : public ::testing::TestWithParam<PollExecutor>
{};

TEST_P(ParkedPollDifferential, RandomSchedulesMatchTheDelayLoop)
{
    const PollExecutor ex = GetParam();
    constexpr std::uint32_t kNodes = 6;
    // Cross-node releases are legal only where one thread runs every
    // lane.
    for (const bool crossNode : {false, true}) {
        if (crossNode && ex.threaded)
            continue;
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            const PollRun oracle =
                PollModel(kNodes, false, crossNode, seed).run({1, false});
            const PollRun delay =
                PollModel(kNodes, false, crossNode, seed).run(ex);
            const PollRun parked =
                PollModel(kNodes, true, crossNode, seed).run(ex);
            std::size_t whats[5] = {};
            for (const auto &t : oracle.traces)
                for (const auto &e : t)
                    ++whats[e.what];
            ASSERT_GT(oracle.polls, 300u) << "the pollers barely polled";
            ASSERT_GT(whats[PollModel::GaveUp], 0u);
            ASSERT_GT(whats[PollModel::Squashed], 0u);
            ASSERT_GT(whats[PollModel::Died], 0u);
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " crossNode " << crossNode);
            expectSameRun(oracle, delay, "Delay loop vs serial oracle");
            expectSameRun(delay, parked, "ParkedDelay vs Delay loop");
            EXPECT_EQ(delay.barriers, parked.barriers);
            EXPECT_EQ(delay.crossShard, parked.crossShard);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Executors, ParkedPollDifferential,
    ::testing::Values(PollExecutor{1, false}, PollExecutor{2, false},
                      PollExecutor{4, false}, PollExecutor{2, true},
                      PollExecutor{4, true}),
    [](const ::testing::TestParamInfo<PollExecutor> &info) {
        if (info.param.shards == 1)
            return std::string("Serial");
        return std::string(info.param.threaded ? "Threaded" : "Det") +
               std::to_string(info.param.shards);
    });

// ===========================================================================
// Differential harness: serial oracle vs --shards {2,4,8}
// ===========================================================================

/** Run @p spec serially and at shard counts {2,4,8}; every result
 *  must hash identical to the oracle. */
void
expectShardInvariant(const core::RunSpec &spec, const char *tag)
{
    const auto oracle = core::runOne(spec);
    const auto want = hashResult(oracle);
    EXPECT_EQ(oracle.shardsUsed, 1u);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        auto sharded = spec;
        sharded.shards = shards;
        const auto res = core::runOne(sharded);
        EXPECT_EQ(hashResult(res), want)
            << tag << ": shards=" << shards
            << " diverged from the serial oracle (committed="
            << res.stats.committed << " vs " << oracle.stats.committed
            << ", simTime=" << res.simTime << " vs " << oracle.simTime
            << ")";
        EXPECT_EQ(res.shardsUsed,
                  std::min(shards, spec.cluster.numNodes));
        EXPECT_GT(res.shardWindows + res.crossShardEvents, 0u)
            << tag << ": the sharded run never exercised the "
            << "cross-shard machinery";
    }
}

/** Small four-node spec sized like the golden matrix. */
core::RunSpec
matrixSpec(protocol::EngineKind engine, workload::AppKind app,
           bool faults, bool audit)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.mix = {core::MixEntry{app, kvs::StoreKind::HashTable}};
    spec.cluster.numNodes = 4;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.txnsPerContext = 8;
    spec.scaleKeys = 4000;
    spec.audit = audit;
    if (faults) {
        spec.cluster.faults.enabled = true;
        spec.cluster.faults.dropAll(0.02);
        spec.cluster.faults.dupAll(0.01);
        spec.cluster.faults.delayAll(0.02);
    }
    return spec;
}

class ShardDifferential
    : public ::testing::TestWithParam<protocol::EngineKind>
{};

TEST_P(ShardDifferential, EngineWorkloadFaultAuditMatrix)
{
    for (auto app : {workload::AppKind::YcsbA, workload::AppKind::Tpcc})
        for (bool faults : {false, true})
            for (bool audit : {false, true})
                expectShardInvariant(
                    matrixSpec(GetParam(), app, faults, audit),
                    "matrix");
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ShardDifferential,
    ::testing::Values(protocol::EngineKind::Baseline,
                      protocol::EngineKind::HadesHybrid,
                      protocol::EngineKind::Hades),
    [](const auto &info) {
        switch (info.param) {
          case protocol::EngineKind::Baseline:
            return std::string("Baseline");
          case protocol::EngineKind::Hades:
            return std::string("Hades");
          default:
            return std::string("HadesH");
        }
    });

/** Five-node replicated cluster with recovery armed (the spec family
 *  the crash/partition/CM scenarios below perturb). */
core::RunSpec
recoverySpec(protocol::EngineKind engine)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.cluster.numNodes = 5;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.tuning.retryTimeoutBase = us(4);
    spec.cluster.tuning.retryTimeoutCap = us(32);
    spec.cluster.tuning.maxCommitResends = 6;
    spec.mix = {core::MixEntry{workload::AppKind::Smallbank,
                               kvs::StoreKind::HashTable}};
    spec.txnsPerContext = 8;
    spec.scaleKeys = 4000;
    spec.replication.degree = 2;
    spec.cluster.faults.enabled = true;
    spec.cluster.recovery.enabled = true;
    return spec;
}

void
addCrash(core::RunSpec &spec, NodeId victim, Tick at)
{
    FaultConfig::NodeEvent ev;
    ev.node = victim;
    ev.at = at;
    ev.crash = true;
    ev.forever = true;
    spec.cluster.faults.nodeEvents.push_back(ev);
}

TEST(ShardDifferentialRecovery, CrashForeverViewChangeMatchesSerial)
{
    // A permanent mid-run crash drives the whole recovery pipeline --
    // lease expiry, view change, backup promotion, in-doubt
    // resolution -- and all of it must shard bit-identically.
    auto spec = recoverySpec(protocol::EngineKind::Hades);
    addCrash(spec, 2, us(30));
    const auto oracle = core::runOne(spec);
    EXPECT_EQ(oracle.viewChanges, 1u)
        << "spec no longer exercises the view-change path";
    expectShardInvariant(spec, "crash-forever");
}

TEST(ShardDifferentialRecovery, PartitionWindowMatchesSerial)
{
    // A healed symmetric partition: retransmits pile up against the
    // window, then drain. The retry machinery is timer-heavy (control
    // events against data-node events), a prime tie-break hazard.
    auto spec = recoverySpec(protocol::EngineKind::Hades);
    FaultConfig::PartitionWindow w;
    w.edges.emplace_back(NodeId(1), NodeId(3));
    w.symmetric = true;
    w.at = us(20);
    w.until = us(60);
    spec.cluster.faults.partitions.push_back(w);
    const auto oracle = core::runOne(spec);
    EXPECT_GT(oracle.partitionDrops, 0u)
        << "spec no longer exercises the partition path";
    expectShardInvariant(spec, "partition-window");
}

TEST(ShardDifferentialRecovery, CmFailoverMatchesSerial)
{
    // Killing the acting CM primary (node 0) forces the standby
    // succession before the ordinary view change; the CM group's
    // control traffic all runs on the control rank, which every
    // executor must order identically against data events.
    auto spec = recoverySpec(protocol::EngineKind::Hades);
    addCrash(spec, 0, us(25));
    const auto oracle = core::runOne(spec);
    EXPECT_EQ(oracle.cmFailovers, 1u)
        << "spec no longer exercises the CM-failover path";
    expectShardInvariant(spec, "cm-failover");
}

// ===========================================================================
// Threaded messaging differential: serial oracle vs worker threads
// ===========================================================================

/** Uniform-placement messaging spec: remote picks dominate, so every
 *  transaction pushes RDMA / Intend-to-commit / Ack traffic through
 *  the cross-lane mailboxes. This is the spec family PR 8 certifies
 *  for worker threads. */
core::RunSpec
messagingSpec(protocol::EngineKind engine,
              std::vector<core::MixEntry> mix)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.mix = std::move(mix);
    spec.cluster.numNodes = 8;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.txnsPerContext = 6;
    spec.scaleKeys = 6000;
    // Keep the optimistic path live: the zipfian hot set can push one
    // straggler past the default 48-squash lock-mode threshold, whose
    // runtime serial-rerun escape hatch is covered separately by
    // LockModeFallbackTriggersDeterministicRerun.
    spec.cluster.tuning.maxSquashesBeforeLockMode = 10000;
    return spec;
}

/**
 * The PR 8 tentpole contract, per spec: the run must certify for
 * worker threads, and at shard counts {2,4,8} the threaded result, a
 * threaded re-run (scheduling-jitter determinism), and the
 * deterministic merge must all hash identical to the serial oracle.
 */
void
expectThreadedMessagingInvariant(const core::RunSpec &spec,
                                 const char *tag)
{
    const auto oracle = core::runOne(spec);
    EXPECT_GT(oracle.stats.netMessages, 0u)
        << tag << ": spec stopped messaging; nothing cross-lane here";
    const auto want = hashResult(oracle);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        auto sharded = spec;
        sharded.shards = shards;
        const auto res = core::runOne(sharded);
        EXPECT_TRUE(res.shardsThreaded)
            << tag << ": fault-free uniform messaging must certify "
            << "for worker threads";
        EXPECT_FALSE(res.serialRerun)
            << tag << ": certified run hit a serial-only path";
        EXPECT_EQ(hashResult(res), want)
            << tag << ": threaded shards=" << shards
            << " diverged from the serial oracle (committed="
            << res.stats.committed << " vs " << oracle.stats.committed
            << ", simTime=" << res.simTime << " vs " << oracle.simTime
            << ")";
        const auto rerun = core::runOne(sharded);
        EXPECT_EQ(hashResult(rerun), want)
            << tag << ": threaded shards=" << shards
            << " is not deterministic across runs";
        auto det = sharded;
        det.cluster.sharding.forceDeterministic = true;
        const auto merged = core::runOne(det);
        EXPECT_FALSE(merged.shardsThreaded);
        EXPECT_EQ(hashResult(merged), want)
            << tag << ": deterministic merge disagrees at shards="
            << shards;
    }
}

class ThreadedMessagingDifferential
    : public ::testing::TestWithParam<protocol::EngineKind>
{};

TEST_P(ThreadedMessagingDifferential, UniformWorkloadMatrix)
{
    const auto hash = kvs::StoreKind::HashTable;
    using workload::AppKind;
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(), {core::MixEntry{AppKind::YcsbA, hash}}),
        "ycsb-a");
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(), {core::MixEntry{AppKind::YcsbB, hash}}),
        "ycsb-b");
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(),
                      {core::MixEntry{AppKind::Smallbank, hash}}),
        "smallbank");
    expectThreadedMessagingInvariant(
        messagingSpec(GetParam(),
                      {core::MixEntry{AppKind::YcsbA, hash},
                       core::MixEntry{AppKind::Smallbank, hash}}),
        "mix2");
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ThreadedMessagingDifferential,
    ::testing::Values(protocol::EngineKind::Baseline,
                      protocol::EngineKind::HadesHybrid,
                      protocol::EngineKind::Hades),
    [](const auto &info) {
        switch (info.param) {
          case protocol::EngineKind::Baseline:
            return std::string("Baseline");
          case protocol::EngineKind::Hades:
            return std::string("Hades");
          default:
            return std::string("HadesH");
        }
    });

// ===========================================================================
// Threaded-executor certification behavior
// ===========================================================================

/** The store each app runs on here: YCSB-E scans need an ordered
 *  index, everything else uses the hash table. */
kvs::StoreKind
storeFor(workload::AppKind app)
{
    return app == workload::AppKind::YcsbE ? kvs::StoreKind::BPlusTree
                                           : kvs::StoreKind::HashTable;
}

/** All-local OLTP spec that qualifies for worker threads. */
core::RunSpec
certifiedSpec(workload::AppKind app)
{
    core::RunSpec spec;
    spec.engine = protocol::EngineKind::Hades;
    spec.mix = {core::MixEntry{app, kvs::StoreKind::HashTable}};
    spec.cluster.numNodes = 8;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.forcedLocalFraction = 1.0;
    spec.txnsPerContext = 10;
    spec.scaleKeys = 8000;
    spec.audit = false;
    return spec;
}

TEST(ShardThreaded, CertifiedRunUsesThreadsAndMatchesSerial)
{
    for (auto app : {workload::AppKind::Tpcc,
                     workload::AppKind::Tatp}) {
        auto spec = certifiedSpec(app);
        const auto want = hashResult(core::runOne(spec));
        for (std::uint32_t shards : {2u, 4u, 8u}) {
            auto sharded = spec;
            sharded.shards = shards;
            const auto res = core::runOne(sharded);
            EXPECT_TRUE(res.shardsThreaded)
                << "all-local OLTP must certify for worker threads";
            EXPECT_EQ(hashResult(res), want)
                << "threaded shards=" << shards << " diverged";
        }
    }
}

TEST(ShardThreaded, ForceDeterministicDisablesWorkerThreads)
{
    auto spec = certifiedSpec(workload::AppKind::Tpcc);
    const auto want = hashResult(core::runOne(spec));
    spec.cluster.sharding.forceDeterministic = true;
    spec.shards = 4;
    const auto res = core::runOne(spec);
    EXPECT_FALSE(res.shardsThreaded);
    EXPECT_EQ(res.shardsUsed, 4u);
    EXPECT_EQ(hashResult(res), want);
}

TEST(ShardThreaded, AdmittedShapesRunThreadedWithoutSerialRerun)
{
    // Certification soundness, admitting side: every spec shape the
    // runner certifies (all app kinds, uniform or forced-full-local
    // placement, faults/recovery/replication/audit all off) must
    // actually run on worker threads and never trip the
    // SerialRerunNeeded escape hatch -- the static certification has
    // to be conservative enough that no admitted run reaches a
    // serial-only path.
    using workload::AppKind;
    const AppKind apps[] = {
        AppKind::YcsbA,     AppKind::YcsbB,        AppKind::YcsbE,
        AppKind::YcsbWriteOnly, AppKind::YcsbHalf, AppKind::YcsbReadOnly,
        AppKind::Tpcc,      AppKind::Tatp,         AppKind::Smallbank,
    };
    for (auto app : apps) {
        for (double frac : {-1.0, 1.0}) {
            auto spec = messagingSpec(
                protocol::EngineKind::Hades,
                {core::MixEntry{app, storeFor(app)}});
            spec.cluster.forcedLocalFraction = frac;
            spec.txnsPerContext = 3; // breadth over depth
            spec.shards = 8;
            const auto res = core::runOne(spec);
            EXPECT_TRUE(res.shardsThreaded)
                << "app=" << int(app) << " frac=" << frac
                << " should be certified";
            EXPECT_FALSE(res.serialRerun)
                << "app=" << int(app) << " frac=" << frac
                << " was admitted but hit a serial-only path";
        }
    }
}

TEST(ShardThreaded, DecertifiedShapesStayOffThreadsAndMatchSerial)
{
    // Certification soundness, refusing side: each decertifying flag
    // keeps worker threads off, and the run falls back to the
    // deterministic executor transparently -- reproducing the serial
    // oracle bit-for-bit with no SerialRerunNeeded retry (the static
    // gate, not the runtime escape hatch, must catch these).
    using Mutate = std::function<void(core::RunSpec &)>;
    const std::pair<const char *, Mutate> shapes[] = {
        {"audit", [](core::RunSpec &s) { s.audit = true; }},
        {"faults",
         [](core::RunSpec &s) {
             s.cluster.faults.enabled = true;
             s.cluster.faults.dropAll(0.02);
         }},
        {"recovery",
         [](core::RunSpec &s) {
             s.replication.degree = 2;
             s.cluster.faults.enabled = true;
             s.cluster.recovery.enabled = true;
         }},
        {"replication",
         [](core::RunSpec &s) { s.replication.degree = 2; }},
        {"fractional-locality",
         [](core::RunSpec &s) { s.cluster.forcedLocalFraction = 0.5; }},
        {"force-deterministic",
         [](core::RunSpec &s) {
             s.cluster.sharding.forceDeterministic = true;
         }},
    };
    for (const auto &[name, mutate] : shapes) {
        auto spec = messagingSpec(
            protocol::EngineKind::Hades,
            {core::MixEntry{workload::AppKind::YcsbA,
                            kvs::StoreKind::HashTable}});
        spec.txnsPerContext = 3;
        mutate(spec);
        const auto want = hashResult(core::runOne(spec));
        auto sharded = spec;
        sharded.shards = 4;
        const auto res = core::runOne(sharded);
        EXPECT_FALSE(res.shardsThreaded)
            << name << " must decertify the spec";
        EXPECT_FALSE(res.serialRerun)
            << name << " should be caught statically, not via the "
            << "runtime rerun";
        EXPECT_EQ(hashResult(res), want)
            << name << ": deterministic fallback diverged";
    }
}

TEST(ShardThreaded, LockModeFallbackTriggersDeterministicRerun)
{
    // Brutal contention forces the pessimistic lock-mode path, which
    // the threaded executor refuses: the run must be transparently
    // redone on the deterministic executor and still match the oracle.
    auto spec = certifiedSpec(workload::AppKind::Tpcc);
    spec.scaleKeys = 64;
    spec.cluster.tuning.maxSquashesBeforeLockMode = 1;
    const auto oracle = core::runOne(spec);
    ASSERT_GT(oracle.stats.lockModeFallbacks, 0u)
        << "spec no longer reaches lock mode; tighten the contention";
    const auto want = hashResult(oracle);
    spec.shards = 4;
    const auto res = core::runOne(spec);
    EXPECT_TRUE(res.serialRerun)
        << "the threaded executor silently ran the lock-mode path";
    EXPECT_FALSE(res.shardsThreaded);
    EXPECT_EQ(hashResult(res), want);
}

// ===========================================================================
// Lane-closed threaded runs: one unbounded window, no barrier
// ===========================================================================

TEST(ShardThreaded, LaneClosedRunsSkipEveryBarrier)
{
    // At forced-full locality these apps touch only records homed on
    // the issuing node, so the runner certifies their runs lane-closed
    // at setup: every lane runs to completion in one window, and the
    // run must cross no barrier and still hash equal to the oracle.
    using workload::AppKind;
    for (auto engine : {protocol::EngineKind::Baseline,
                        protocol::EngineKind::HadesHybrid,
                        protocol::EngineKind::Hades}) {
        for (auto app : {AppKind::Tpcc, AppKind::Tatp, AppKind::YcsbA,
                         AppKind::YcsbB}) {
            auto spec = certifiedSpec(app);
            spec.engine = engine;
            // Keep the optimistic path live: the lock-mode fallback's
            // serial re-run is covered by its own test.
            spec.cluster.tuning.maxSquashesBeforeLockMode = 10000;
            const auto want = hashResult(core::runOne(spec));
            for (std::uint32_t shards : {2u, 4u, 8u}) {
                auto sharded = spec;
                sharded.shards = shards;
                const auto res = core::runOne(sharded);
                const std::string tag =
                    std::string(protocol::engineKindName(engine)) + "/" +
                    workload::appKindName(app) +
                    " shards=" + std::to_string(shards);
                EXPECT_TRUE(res.shardsThreaded) << tag;
                EXPECT_TRUE(res.laneClosed) << tag;
                EXPECT_FALSE(res.serialRerun) << tag;
                EXPECT_EQ(res.shardWindows, 0u)
                    << tag << ": a lane-closed run crossed a barrier";
                EXPECT_EQ(res.crossShardEvents, 0u) << tag;
                EXPECT_EQ(hashResult(res), want)
                    << tag << ": lane-closed run diverged from serial";
            }
        }
    }
}

TEST(ShardThreaded, LaneClosureMatchesObservedTraffic)
{
    // The setup certificate against the traffic a run really makes: a
    // run certified lane-closed must send no event across lanes on the
    // deterministic executor, which counts every crossing. The table
    // pins which shapes close. Smallbank leaves the node even at full
    // locality (savings rows sit at savingsBase_ + a, and the b == a
    // fallback picks a + 1); YCSB-E scans span homes; uniform
    // placement always reaches remote records. Open runs keep their
    // lookahead windows.
    using workload::AppKind;
    struct Row
    {
        AppKind app;
        bool closedWhenLocal;
    };
    const Row rows[] = {
        {AppKind::YcsbA, true},
        {AppKind::YcsbB, true},
        {AppKind::YcsbE, false},
        {AppKind::YcsbWriteOnly, true},
        {AppKind::YcsbHalf, true},
        {AppKind::YcsbReadOnly, true},
        {AppKind::Tpcc, true},
        {AppKind::Tatp, true},
        {AppKind::Smallbank, false},
    };
    for (const Row &row : rows) {
        for (double frac : {1.0, -1.0}) {
            auto spec = messagingSpec(
                protocol::EngineKind::Hades,
                {core::MixEntry{row.app, storeFor(row.app)}});
            spec.cluster.forcedLocalFraction = frac;
            spec.txnsPerContext = 3;
            spec.shards = 4;
            const std::string tag =
                std::string(workload::appKindName(row.app)) +
                (frac > 0 ? " local" : " uniform");
            const auto threaded = core::runOne(spec);
            ASSERT_TRUE(threaded.shardsThreaded) << tag;
            auto det = spec;
            det.cluster.sharding.forceDeterministic = true;
            const auto merged = core::runOne(det);
            EXPECT_FALSE(merged.laneClosed)
                << tag << ": the deterministic executor keeps windows";
            EXPECT_EQ(hashResult(threaded), hashResult(merged)) << tag;

            const bool want_closed = frac > 0 && row.closedWhenLocal;
            EXPECT_EQ(threaded.laneClosed, want_closed) << tag;
            if (threaded.laneClosed) {
                EXPECT_EQ(merged.crossShardEvents, 0u)
                    << tag << ": certified lane-closed, yet events "
                    << "crossed lanes";
                EXPECT_EQ(threaded.shardWindows, 0u) << tag;
            } else {
                EXPECT_GT(merged.crossShardEvents, 0u)
                    << tag << ": open run made no cross-lane traffic; "
                    << "the certificate is too conservative here";
                EXPECT_GT(threaded.shardWindows, 0u)
                    << tag << ": an open run must keep its windows";
            }
        }
    }
}

TEST(ShardThreaded, ShardCountClampsToClusterSize)
{
    auto spec = matrixSpec(protocol::EngineKind::Hades,
                           workload::AppKind::YcsbA, false, false);
    const auto want = hashResult(core::runOne(spec));
    spec.shards = 64; // 4-node cluster
    const auto res = core::runOne(spec);
    EXPECT_EQ(res.shardsUsed, 4u);
    EXPECT_EQ(hashResult(res), want);
}

} // namespace
