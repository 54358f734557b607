/**
 * @file
 * Protocol scenario tests: drive specific Table II behaviours through
 * the engines and check the mechanism (not just the outcome) --
 * eager L-L squashes, lazy commit-time conflicts, the
 * Intend-to-commit/Ack/Validation message flow, read-your-own-write,
 * the pessimistic fallback, and state-leak freedom.
 */

#include <gtest/gtest.h>

#include <functional>
#include <span>

#include "core/runner.hh"
#include "protocol/baseline.hh"
#include "protocol/hades.hh"
#include "protocol/system.hh"
#include "sim/task.hh"

namespace hades
{
namespace
{

using protocol::EngineKind;
using protocol::ExecCtx;
using protocol::System;
using protocol::TxnEngine;
using txn::SquashReason;

ClusterConfig
smallCluster(std::uint32_t nodes = 2)
{
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.coresPerNode = 2;
    cfg.slotsPerCore = 1;
    cfg.seed = 11;
    return cfg;
}

txn::TxnProgram
writeProgram(std::uint64_t record, std::int64_t value)
{
    txn::TxnProgram prog;
    txn::Request w;
    w.record = record;
    w.isWrite = true;
    w.delta = value;
    prog.requests.push_back(w);
    return prog;
}

txn::TxnProgram
readProgram(std::uint64_t record)
{
    txn::TxnProgram prog;
    txn::Request r;
    r.record = record;
    prog.requests.push_back(r);
    return prog;
}

/** Find a record homed on @p node. */
std::uint64_t
recordHomedAt(System &sys, NodeId node, std::uint64_t start = 0)
{
    for (std::uint64_t r = start;; ++r)
        if (sys.placement.homeOf(r) == node)
            return r;
}

sim::DetachedTask
runProg(TxnEngine &engine, ExecCtx ctx, txn::TxnProgram prog,
        int repeat = 1)
{
    for (int i = 0; i < repeat; ++i)
        co_await engine.run(ctx, prog);
}

/** After any run, no hardware or software state may leak. */
void
expectNoLeaks(System &sys)
{
    for (auto &node : sys.nodes) {
        EXPECT_EQ(node->lockBank.activeCount(), 0u)
            << "leaked Locking Buffer on node " << node->id;
        EXPECT_EQ(node->nic.remoteTxCount(), 0u)
            << "leaked NIC filters on node " << node->id;
        EXPECT_EQ(node->versions.lockedCount(), 0u)
            << "leaked record lock on node " << node->id;
        EXPECT_EQ(node->memory.llc().taggedTxCount(), 0u)
            << "leaked WrTX tag on node " << node->id;
    }
}

TEST(HadesProtocol, EagerLocalConflictSquashesSecondAccessor)
{
    auto cfg = smallCluster(2);
    System sys(cfg, 64, core::engineRecordBytes(EngineKind::Hades,
                                                cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);
    std::uint64_t rec = recordHomedAt(sys, 0);

    // Two contexts on node 0 hammer the same local record.
    runProg(*engine, ExecCtx{0, 0, 0}, writeProgram(rec, 1), 30);
    runProg(*engine, ExecCtx{0, 1, 0}, writeProgram(rec, 2), 30);
    ASSERT_TRUE(sys.kernel.run());

    EXPECT_EQ(engine->stats().committed, 60u);
    EXPECT_GT(engine->stats()
                  .squashes[std::size_t(
                      SquashReason::EagerLocalConflict)],
              0u)
        << "same-node write-write conflicts must be detected eagerly";
    expectNoLeaks(sys);
}

txn::TxnProgram
incrementProg(std::uint64_t record)
{
    txn::TxnProgram prog;
    txn::Request r;
    r.record = record;
    prog.requests.push_back(r);
    txn::Request w;
    w.record = record;
    w.isWrite = true;
    w.derivedFromReadIdx = 0;
    w.delta = 1;
    prog.requests.push_back(w);
    return prog;
}

TEST(HadesProtocol, LazyConflictOnRemoteData)
{
    auto cfg = smallCluster(2);
    System sys(cfg, 64, core::engineRecordBytes(EngineKind::Hades,
                                                cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);
    std::uint64_t rec = recordHomedAt(sys, 1);

    // A context on node 0 (remote) and one on node 1 (local)
    // read-modify-write the same record homed at node 1: the reads make
    // the L-R conflict visible, and it is resolved lazily at commit.
    runProg(*engine, ExecCtx{0, 0, 0}, incrementProg(rec), 30);
    runProg(*engine, ExecCtx{1, 0, 0}, incrementProg(rec), 30);
    ASSERT_TRUE(sys.kernel.run());

    EXPECT_EQ(engine->stats().committed, 60u);
    EXPECT_EQ(sys.data.read(rec), 60) << "lost increment";
    auto lazy = engine->stats()
                    .squashes[std::size_t(SquashReason::LazyConflict)];
    auto lockf = engine->stats()
                     .squashes[std::size_t(SquashReason::LockFailure)];
    EXPECT_GT(lazy + lockf, 0u)
        << "L-R conflicts must be detected at commit time";
    expectNoLeaks(sys);
}

TEST(HadesProtocol, BlindFullLineRemoteWawIsBenign)
{
    // Two blind writers of the same whole (line-aligned) remote record:
    // the paper deliberately keeps fully-written lines out of the
    // RemoteWriteBF -- blind WAW is serializable in either order, so no
    // squash is required and the last committer's value survives.
    auto cfg = smallCluster(3);
    System sys(cfg, 64, core::engineRecordBytes(EngineKind::Hades,
                                                cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);
    std::uint64_t rec = recordHomedAt(sys, 2);
    runProg(*engine, ExecCtx{0, 0, 0}, writeProgram(rec, 1), 20);
    runProg(*engine, ExecCtx{1, 0, 0}, writeProgram(rec, 2), 20);
    ASSERT_TRUE(sys.kernel.run());
    EXPECT_EQ(engine->stats().committed, 40u);
    std::int64_t v = sys.data.read(rec);
    EXPECT_TRUE(v == 1 || v == 2);
    expectNoLeaks(sys);
}

TEST(HadesProtocol, CommitUsesNewRdmaVerbs)
{
    auto cfg = smallCluster(2);
    System sys(cfg, 64, core::engineRecordBytes(EngineKind::Hades,
                                                cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);
    std::uint64_t rec = recordHomedAt(sys, 1);

    runProg(*engine, ExecCtx{0, 0, 0}, writeProgram(rec, 42), 5);
    ASSERT_TRUE(sys.kernel.run());

    using net::MsgType;
    EXPECT_EQ(sys.network.messageCount(MsgType::IntendToCommit), 5u);
    EXPECT_EQ(sys.network.messageCount(MsgType::Ack), 5u);
    EXPECT_EQ(sys.network.messageCount(MsgType::Validation), 5u);
    // No SW-Impl verbs: HADES never issues RDMA CAS.
    EXPECT_EQ(sys.network.messageCount(MsgType::RdmaCas), 0u);
    EXPECT_EQ(sys.data.read(rec), 42);
    expectNoLeaks(sys);
}

TEST(HadesProtocol, ReadOnlyRemoteTxnStillValidatesViaItc)
{
    auto cfg = smallCluster(2);
    System sys(cfg, 64, core::engineRecordBytes(EngineKind::Hades,
                                                cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);
    std::uint64_t rec = recordHomedAt(sys, 1);

    runProg(*engine, ExecCtx{0, 0, 0}, readProgram(rec), 3);
    ASSERT_TRUE(sys.kernel.run());
    // Even read-only involvement triggers Intend-to-commit + Ack.
    EXPECT_EQ(sys.network.messageCount(net::MsgType::IntendToCommit),
              3u);
    EXPECT_EQ(sys.network.messageCount(net::MsgType::Ack), 3u);
    expectNoLeaks(sys);
}

TEST(BaselineProtocol, WritesBumpVersionsAndReleaseLocks)
{
    auto cfg = smallCluster(2);
    System sys(cfg, 64,
               core::engineRecordBytes(EngineKind::Baseline,
                                       cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Baseline, sys,
                                   cfg.recordPayloadBytes);
    std::uint64_t local = recordHomedAt(sys, 0);
    std::uint64_t remote = recordHomedAt(sys, 1);

    txn::TxnProgram prog;
    txn::Request w1;
    w1.record = local;
    w1.isWrite = true;
    w1.delta = 7;
    txn::Request w2;
    w2.record = remote;
    w2.isWrite = true;
    w2.delta = 9;
    prog.requests = {w1, w2};
    runProg(*engine, ExecCtx{0, 0, 0}, prog, 4);
    ASSERT_TRUE(sys.kernel.run());

    EXPECT_EQ(sys.data.read(local), 7);
    EXPECT_EQ(sys.data.read(remote), 9);
    EXPECT_EQ(sys.node(0).versions.peek(local).version, 4u);
    EXPECT_EQ(sys.node(1).versions.peek(remote).version, 4u);
    EXPECT_EQ(sys.node(0).versions.peek(local).lockOwner, 0u);
    EXPECT_EQ(sys.node(1).versions.peek(remote).lockOwner, 0u);
    // FaRM-style verbs: RDMA CAS used for remote locking.
    EXPECT_GT(sys.network.messageCount(net::MsgType::RdmaCas), 0u);
    EXPECT_EQ(sys.network.messageCount(net::MsgType::IntendToCommit),
              0u);
}

TEST(AllEngines, ReadYourOwnWriteChains)
{
    for (auto kind : {EngineKind::Baseline, EngineKind::Hades,
                      EngineKind::HadesHybrid}) {
        auto cfg = smallCluster(2);
        System sys(cfg, 64,
                   core::engineRecordBytes(kind,
                                           cfg.recordPayloadBytes));
        auto engine =
            core::makeEngine(kind, sys, cfg.recordPayloadBytes);

        // write A=5; read A (idx 0); write B=A+1  =>  B == 6.
        txn::TxnProgram prog;
        txn::Request wa;
        wa.record = 3;
        wa.isWrite = true;
        wa.delta = 5;
        txn::Request ra;
        ra.record = 3;
        txn::Request wb;
        wb.record = 4;
        wb.isWrite = true;
        wb.derivedFromReadIdx = 0;
        wb.delta = 1;
        prog.requests = {wa, ra, wb};
        runProg(*engine, ExecCtx{0, 0, 0}, prog);
        ASSERT_TRUE(sys.kernel.run());
        EXPECT_EQ(sys.data.read(3), 5) << engine->name();
        EXPECT_EQ(sys.data.read(4), 6) << engine->name();
    }
}

TEST(AllEngines, PessimisticFallbackGuaranteesProgress)
{
    for (auto kind : {EngineKind::Baseline, EngineKind::Hades,
                      EngineKind::HadesHybrid}) {
        auto cfg = smallCluster(2);
        cfg.tuning.maxSquashesBeforeLockMode = 2; // engage quickly
        System sys(cfg, 16,
                   core::engineRecordBytes(kind,
                                           cfg.recordPayloadBytes));
        auto engine =
            core::makeEngine(kind, sys, cfg.recordPayloadBytes);

        // Every context increments the same hot record.
        txn::TxnProgram prog;
        txn::Request r;
        r.record = 1;
        txn::Request w;
        w.record = 1;
        w.isWrite = true;
        w.derivedFromReadIdx = 0;
        w.delta = 1;
        prog.requests = {r, w};
        int contexts = 0;
        for (NodeId n = 0; n < cfg.numNodes; ++n)
            for (CoreId c = 0; c < cfg.coresPerNode; ++c) {
                runProg(*engine, ExecCtx{n, c, 0}, prog, 20);
                ++contexts;
            }
        ASSERT_TRUE(sys.kernel.run()) << engine->name();
        EXPECT_EQ(sys.data.read(1), contexts * 20) << engine->name();
        EXPECT_EQ(engine->stats().committed,
                  std::uint64_t(contexts) * 20u);
    }
}

TEST(HadesHybridProtocol, LocalValidationCatchesLocalConflicts)
{
    auto cfg = smallCluster(1); // single node: everything local
    cfg.coresPerNode = 4;
    System sys(cfg, 8,
               core::engineRecordBytes(EngineKind::HadesHybrid,
                                       cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::HadesHybrid, sys,
                                   cfg.recordPayloadBytes);

    txn::TxnProgram prog;
    txn::Request r;
    r.record = 2;
    txn::Request w;
    w.record = 2;
    w.isWrite = true;
    w.derivedFromReadIdx = 0;
    w.delta = 1;
    prog.requests = {r, w};
    for (CoreId c = 0; c < cfg.coresPerNode; ++c)
        runProg(*engine, ExecCtx{0, c, 0}, prog, 25);
    ASSERT_TRUE(sys.kernel.run());

    EXPECT_EQ(sys.data.read(2), 100);
    auto vf = engine->stats().squashes[std::size_t(
        SquashReason::ValidationFailure)];
    auto lf = engine->stats()
                  .squashes[std::size_t(SquashReason::LockFailure)];
    EXPECT_GT(vf + lf, 0u)
        << "HADES-H must self-detect local conflicts in software";
    expectNoLeaks(sys);
}

TEST(HadesProtocol, PartialRemoteWriteAvoidsFullFetch)
{
    // A line-aligned full-record remote write needs no exec-time fetch
    // at all; a misaligned partial write fetches only edge lines.
    auto cfg = smallCluster(2);
    System sys(cfg, 64, core::engineRecordBytes(EngineKind::Hades,
                                                cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);
    std::uint64_t rec = recordHomedAt(sys, 1);

    txn::TxnProgram full;
    txn::Request w;
    w.record = rec;
    w.isWrite = true;
    w.delta = 1; // whole record, line-aligned
    full.requests = {w};
    runProg(*engine, ExecCtx{0, 0, 0}, full);
    ASSERT_TRUE(sys.kernel.run());
    // Only the commit verbs went over the wire -- no RdmaRead fetch.
    EXPECT_EQ(sys.network.messageCount(net::MsgType::RdmaRead), 0u);
    EXPECT_EQ(sys.data.read(rec), 1);
}

TEST(HadesProtocol, TinyLockingBankCannotDeadlock)
{
    // Committers hold their local Locking Buffer while their
    // Intend-to-commit waits for the remote bank; with a severely
    // undersized bank this forms a distributed waits-for cycle unless
    // the NIC bounds its retries and squashes the committer. Verify
    // the cluster still drains.
    auto cfg = smallCluster(2);
    cfg.coresPerNode = 4;
    cfg.lockingBuffersPerNode = 2; // far below commit concurrency
    System sys(cfg, 256,
               core::engineRecordBytes(EngineKind::Hades,
                                       cfg.recordPayloadBytes));
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);
    // Every context writes a distinct record homed on the OTHER node,
    // maximizing cross-node commit pressure with no data conflicts.
    std::uint64_t rec = 0;
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        for (CoreId c = 0; c < cfg.coresPerNode; ++c) {
            rec = recordHomedAt(sys, 1 - n, rec + 1);
            runProg(*engine, ExecCtx{n, c, 0}, writeProgram(rec, 1),
                    25);
        }
    ASSERT_TRUE(sys.kernel.run()) << "locking-bank deadlock";
    EXPECT_EQ(engine->stats().committed, 8u * 25u);
    expectNoLeaks(sys);
}

/**
 * A write on node 0 to a record whose line a read guard of a context
 * that never finishes holds: the directory stall cannot resolve. The
 * transaction runs in node 0's context, as the runner's drivers do, so
 * the stall parks its retries. With @p keep_alive a timer on node 1
 * keeps the queue busy far past the stall guard; without it the queue
 * drains while the retries are parked.
 */
void
stallForever(EngineKind kind, bool keep_alive)
{
    auto cfg = smallCluster(2);
    System sys(cfg, 64,
               core::engineRecordBytes(kind, cfg.recordPayloadBytes));
    auto engine = core::makeEngine(kind, sys, cfg.recordPayloadBytes);
    const std::uint64_t rec = recordHomedAt(sys, 0);
    const Addr line = lineAddr(sys.placement.addrOf(rec));
    const std::uint64_t holder = GlobalTxId{1, 0, 0}.pack();
    always_assert(sys.node(0).lockBank.acquireReadGuard(
                      holder, std::span<const Addr>(&line, 1)),
                  "no free Locking Buffer");
    auto drive = [](TxnEngine &e, txn::TxnProgram prog)
        -> sim::DetachedTask {
        co_await sim::HopTo{e.system().kernel, 0};
        co_await e.run(ExecCtx{0, 0, 0}, prog);
    };
    drive(*engine, writeProgram(rec, 1));
    std::function<void()> tick = [&] {
        sys.kernel.scheduleAs(1, us(1), tick);
    };
    if (keep_alive)
        sys.kernel.scheduleAs(1, us(1), tick);
    sys.kernel.run();
}

TEST(HadesProtocolDeathTest, UnresolvedStallPanicsWhileEventsRun)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (auto kind : {EngineKind::Hades, EngineKind::HadesHybrid})
        EXPECT_DEATH(stallForever(kind, true),
                     "directory stall did not resolve");
}

TEST(HadesProtocolDeathTest, UnresolvedStallPanicsWhenTheQueueDrains)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (auto kind : {EngineKind::Hades, EngineKind::HadesHybrid})
        EXPECT_DEATH(stallForever(kind, false),
                     "directory stall did not resolve");
}

TEST(AllEngines, StatsPhasesPopulated)
{
    for (auto kind : {EngineKind::Baseline, EngineKind::Hades,
                      EngineKind::HadesHybrid}) {
        auto cfg = smallCluster(2);
        System sys(cfg, 64,
                   core::engineRecordBytes(kind,
                                           cfg.recordPayloadBytes));
        auto engine =
            core::makeEngine(kind, sys, cfg.recordPayloadBytes);
        std::uint64_t rec = recordHomedAt(sys, 1);
        runProg(*engine, ExecCtx{0, 0, 0}, writeProgram(rec, 5), 10);
        ASSERT_TRUE(sys.kernel.run());
        const auto &st = engine->stats();
        EXPECT_EQ(st.execPhase.count(), 10u) << engine->name();
        EXPECT_GT(st.execPhase.mean(), 0.0) << engine->name();
        EXPECT_GT(st.validationPhase.mean(), 0.0) << engine->name();
        if (kind == EngineKind::Baseline) {
            EXPECT_GT(st.commitPhase.mean(), 0.0);
        }
        EXPECT_EQ(st.latency.count(), 10u);
    }
}

} // namespace
} // namespace hades
