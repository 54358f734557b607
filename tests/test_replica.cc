/**
 * @file
 * Tests for the Section V-A fault-tolerance/durability substrate and
 * its integration with the HADES two-phase commit: replica placement,
 * staged-vs-durable images, the promote/discard protocol, failure
 * injection, and end-to-end durability of committed values.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/runner.hh"
#include "protocol/system.hh"
#include "replica/replication.hh"
#include "sim/task.hh"

namespace hades::replica
{
namespace
{

TEST(ReplicaPlacement, DegreeRespected)
{
    ReplicationConfig cfg;
    cfg.degree = 2;
    ReplicaManager mgr{cfg, 5};
    for (std::uint64_t r = 0; r < 200; ++r) {
        NodeId primary = NodeId(r % 5);
        auto backups = mgr.backupsOf(r, primary);
        EXPECT_EQ(backups.size(), 2u);
        for (NodeId b : backups)
            EXPECT_NE(b, primary);
        EXPECT_NE(backups[0], backups[1]);
    }
}

TEST(ReplicaPlacement, DegreeCappedByClusterSize)
{
    ReplicationConfig cfg;
    cfg.degree = 10;
    ReplicaManager mgr{cfg, 3};
    auto backups = mgr.backupsOf(7, 1);
    EXPECT_EQ(backups.size(), 2u); // only two other nodes exist
}

TEST(ReplicaPlacement, DisabledMeansNoBackups)
{
    ReplicationConfig cfg; // degree 0
    ReplicaManager mgr{cfg, 5};
    EXPECT_TRUE(mgr.backupsOf(1, 0).empty());
    EXPECT_FALSE(cfg.enabled());
}

TEST(ReplicaStore, StagePromoteDiscard)
{
    ReplicaStore store;
    store.stage(1, 100, 42);
    store.stage(1, 101, 43);
    store.stage(2, 100, 99);
    EXPECT_EQ(store.stagedTxns(), 2u);
    EXPECT_FALSE(store.hasDurable(100));

    store.promote(1, /*seq=*/1);
    EXPECT_EQ(store.durableValue(100), 42);
    EXPECT_EQ(store.durableValue(101), 43);
    EXPECT_EQ(store.stagedTxns(), 1u);

    // Discarding txn 2 must not disturb durable state.
    store.discard(2);
    EXPECT_EQ(store.durableValue(100), 42);
    EXPECT_EQ(store.stagedTxns(), 0u);

    // Promoting an unknown transaction is a no-op.
    store.promote(77, /*seq=*/2);
    EXPECT_EQ(store.durableRecords(), 2u);
}

TEST(ReplicaStore, MissingImageIsDistinctFromZero)
{
    ReplicaStore store;
    EXPECT_EQ(store.durableValue(5), std::nullopt);
    store.installDurable(5, 0, /*seq=*/1);
    EXPECT_EQ(store.durableValue(5), std::int64_t{0});
    EXPECT_TRUE(store.hasDurable(5));
}

TEST(ReplicaStore, MaxSeqWinsAbsorbsReordering)
{
    ReplicaStore store;
    store.installDurable(9, 30, /*seq=*/3);
    // A delayed older promote must not roll the record back.
    store.installDurable(9, 10, /*seq=*/1);
    EXPECT_EQ(store.durableValue(9), 30);
    ASSERT_TRUE(store.durableImage(9).has_value());
    EXPECT_EQ(store.durableImage(9)->seq, 3u);
    // A newer commit wins as usual.
    store.installDurable(9, 50, /*seq=*/5);
    EXPECT_EQ(store.durableValue(9), 50);
    // Re-delivery of the same (seq, value) is idempotent.
    store.installDurable(9, 50, /*seq=*/5);
    EXPECT_EQ(store.durableValue(9), 50);
}

TEST(ReplicaPlacement, DeadNodeLeavesItsRingSlotEmpty)
{
    ReplicationConfig cfg;
    cfg.degree = 2;
    ReplicaManager mgr{cfg, 5};
    std::vector<std::vector<NodeId>> before;
    for (std::uint64_t r = 0; r < 64; ++r) {
        before.push_back(mgr.backupsOf(r, /*primary=*/0));
        ASSERT_EQ(before.back().size(), 2u);
    }
    mgr.markDead(3);
    EXPECT_TRUE(mgr.nodeDead(3));
    EXPECT_EQ(mgr.liveNodes(), 4u);
    for (std::uint64_t r = 0; r < 64; ++r) {
        // The dead node's slot stays empty: the set only shrinks, it
        // never gains a member that missed earlier in-flight promotes.
        std::vector<NodeId> expect;
        for (NodeId b : before[r])
            if (b != 3)
                expect.push_back(b);
        EXPECT_EQ(mgr.backupsOf(r, 0), expect);
    }
}

TEST(ReplicationConfig, MediumLatencies)
{
    ReplicationConfig nvm;
    nvm.medium = Medium::Nvm;
    ReplicationConfig ssd;
    ssd.medium = Medium::Ssd;
    EXPECT_LT(nvm.persistLatency(), ssd.persistLatency());
    EXPECT_EQ(nvm.persistLatency(), ns(300));
    EXPECT_EQ(ssd.persistLatency(), us(10));
}

// --- end-to-end integration with the HADES engine ---------------------------

core::RunSpec
replicatedSpec(std::uint32_t degree, double loss = 0.0)
{
    core::RunSpec spec;
    spec.engine = protocol::EngineKind::Hades;
    spec.cluster.numNodes = 4;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 1;
    spec.mix = {core::MixEntry{workload::AppKind::Smallbank,
                               kvs::StoreKind::HashTable}};
    spec.txnsPerContext = 40;
    spec.scaleKeys = 4'000;
    spec.replication.degree = degree;
    spec.replication.messageLossProbability = loss;
    return spec;
}

TEST(ReplicatedCommit, AllCommitsReplicated)
{
    auto res = core::runOne(replicatedSpec(2));
    EXPECT_GT(res.replicatedCommits, 0u);
    EXPECT_EQ(res.lostReplicaMessages, 0u);
    EXPECT_EQ(res.stats.committed, 8u * 40u);
}

TEST(ReplicatedCommit, ReplicationCostsThroughput)
{
    auto plain = core::runOne(replicatedSpec(0));
    auto repl = core::runOne(replicatedSpec(2));
    // Extra replica round trips + persists must cost something, but the
    // protocol should still make normal progress.
    EXPECT_LT(repl.throughputTps, plain.throughputTps);
    EXPECT_GT(repl.throughputTps, plain.throughputTps * 0.3);
}

TEST(ReplicatedCommit, LossInjectionAbortsButStaysCorrect)
{
    for (auto engine : {protocol::EngineKind::Hades,
                        protocol::EngineKind::HadesHybrid,
                        protocol::EngineKind::Baseline}) {
        auto spec = replicatedSpec(2, /*loss=*/0.05);
        spec.engine = engine;
        // Baseline and HADES-H stage replicas only with recovery on.
        spec.cluster.recovery.enabled =
            engine != protocol::EngineKind::Hades;
        const char *name = protocol::engineKindName(engine);
        auto res = core::runOne(spec);
        EXPECT_GT(res.lostReplicaMessages, 0u) << name;
        EXPECT_GT(res.stats
                      .squashes[std::size_t(
                          txn::SquashReason::ReplicaTimeout)],
                  0u)
            << name << ": lost replica updates must abort transactions";
        // Every context still finishes its quota.
        EXPECT_EQ(res.stats.committed, 8u * 40u) << name;
    }
}

/** Direct System-level check: committed values are durable on backups. */
TEST(ReplicatedCommit, DurableImagesMatchCommittedValues)
{
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.coresPerNode = 1;
    cfg.slotsPerCore = 1;
    ReplicationConfig repl;
    repl.degree = 2;
    protocol::System sys(
        cfg, 32,
        core::engineRecordBytes(protocol::EngineKind::Hades,
                                cfg.recordPayloadBytes),
        repl);
    auto engine = core::makeEngine(protocol::EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);

    auto drive = [](protocol::TxnEngine &eng,
                    protocol::ExecCtx ctx) -> sim::DetachedTask {
        for (std::uint64_t rec = 0; rec < 8; ++rec) {
            txn::TxnProgram prog;
            txn::Request w;
            w.record = rec;
            w.isWrite = true;
            w.delta = std::int64_t(1000 + rec);
            prog.requests.push_back(w);
            co_await eng.run(ctx, prog);
        }
    };
    drive(*engine, protocol::ExecCtx{0, 0, 0});
    ASSERT_TRUE(sys.kernel.run());

    for (std::uint64_t rec = 0; rec < 8; ++rec) {
        NodeId primary = sys.placement.homeOf(rec);
        for (NodeId b : sys.replicas->backupsOf(rec, primary)) {
            EXPECT_EQ(sys.replicas->store(b).durableValue(rec),
                      std::int64_t(1000 + rec))
                << "record " << rec << " backup " << b;
        }
        // No staged leftovers anywhere.
    }
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        EXPECT_EQ(sys.replicas->store(n).stagedTxns(), 0u);

    // Every live backup of every committed record must hold the
    // ground-truth value (not merely agree with its peers).
    EXPECT_EQ(sys.replicas->divergentRecords(
                  sys.data,
                  [&](std::uint64_t r) {
                      return sys.placement.homeOf(r);
                  }),
              0u);
}

} // namespace
} // namespace hades::replica
