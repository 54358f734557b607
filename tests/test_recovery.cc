/**
 * @file
 * Tests for the crash-recovery / reconfiguration subsystem
 * (src/recovery/): lease-based failure detection, epoch-numbered view
 * changes, backup promotion, in-doubt transaction resolution, epoch
 * fencing of stale traffic, and determinism of crash_forever runs.
 *
 * Two layers:
 *  - direct System-level tests drive RecoveryManager::viewChange by
 *    hand and inspect the re-homed placement and durable images;
 *  - end-to-end tests go through core::runOne with a permanent-crash
 *    fault plan and assert on the recovery counters the runner
 *    surfaces (the auditor, on by default in debug builds, enforces
 *    serializability underneath).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "protocol/system.hh"
#include "recovery/recovery_manager.hh"
#include "replica/replication.hh"
#include "sim/task.hh"

namespace hades
{
namespace
{

using protocol::EngineKind;
using protocol::ExecCtx;
using protocol::System;
using protocol::TxnEngine;

const char *
engineTag(EngineKind k)
{
    switch (k) {
      case EngineKind::Baseline:
        return "Baseline";
      case EngineKind::Hades:
        return "Hades";
      default:
        return "HadesH";
    }
}

/** A small replicated cluster with recovery enabled and one node
 *  permanently fail-stopped mid-run. */
core::RunSpec
crashSpec(EngineKind engine, NodeId victim, Tick crash_at)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.cluster.numNodes = 5;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.seed = 42;
    spec.cluster.tuning.retryTimeoutBase = us(4);
    spec.cluster.tuning.retryTimeoutCap = us(32);
    spec.cluster.tuning.maxCommitResends = 6;
    spec.mix = {core::MixEntry{workload::AppKind::Smallbank,
                               kvs::StoreKind::HashTable}};
    spec.txnsPerContext = 8;
    spec.scaleKeys = 4'000;
    spec.replication.degree = 2;
    spec.cluster.faults.enabled = true;
    FaultConfig::NodeEvent ev;
    ev.node = victim;
    ev.at = crash_at;
    ev.crash = true;
    ev.forever = true;
    spec.cluster.faults.nodeEvents.push_back(ev);
    spec.cluster.recovery.enabled = true;
    return spec;
}

// --- lease expiry drives the view change -------------------------------------

class CrashRecovery : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(CrashRecovery, LeaseExpiryTriggersExactlyOneViewChange)
{
    auto res = core::runOne(crashSpec(GetParam(), 2, us(30)));
    EXPECT_TRUE(res.recoveryEnabled);
    EXPECT_GT(res.leaseProbes, 0u) << "lease machinery never probed";
    EXPECT_EQ(res.viewChanges, 1u)
        << "one permanent crash must yield exactly one view change";
    EXPECT_GT(res.promotedRecords, 0u)
        << "the dead node homed records that were never re-homed";
    // The survivors finish their quotas; the dead node's drivers stop
    // early, so total commits land strictly between the survivor floor
    // and the fault-free total.
    const std::uint64_t contexts = 5 * 2 * 2;
    const std::uint64_t per_node = 2 * 2 * 8;
    EXPECT_GE(res.stats.committed, (contexts - 4) * 8u - per_node);
    EXPECT_LE(res.stats.committed, contexts * 8u);
}

TEST_P(CrashRecovery, FaultFreeRunWithLeasesStaysClean)
{
    // Leases renew forever but nothing dies: no view change, full
    // commit quota, and the probe loops wind down once every driver
    // reports in (otherwise the kernel would never drain and runOne
    // would assert).
    auto spec = crashSpec(GetParam(), 2, us(30));
    spec.cluster.faults.nodeEvents.clear();
    auto res = core::runOne(spec);
    EXPECT_GT(res.leaseProbes, 0u);
    EXPECT_EQ(res.viewChanges, 0u);
    EXPECT_EQ(res.stats.committed, 5u * 2u * 2u * 8u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CrashRecovery,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- in-doubt resolution across the commit window ----------------------------

TEST(CrashRecovery, InDoubtResolutionAcrossCrashInstants)
{
    // Sweep the crash instant across the run so the fail-stop lands at
    // different points of in-flight two-phase commits: before the
    // serialization point (all-Acks rule says abort) and after it
    // (decision recorded, so recovery must finish the commit). Every
    // run is audited; a wrong resolution shows up as a serializability
    // violation or a divergent replica and panics.
    for (auto engine : {EngineKind::Baseline, EngineKind::Hades,
                        EngineKind::HadesHybrid}) {
        std::uint64_t resolved = 0;
        for (Tick at : {us(10), us(20), us(30), us(45)}) {
            auto res = core::runOne(crashSpec(engine, 2, at));
            EXPECT_EQ(res.viewChanges, 1u)
                << engineTag(engine) << " crash at " << at;
            resolved += res.inDoubtCommitted + res.inDoubtAborted;
        }
        EXPECT_GT(resolved, 0u)
            << engineTag(engine)
            << ": no crash instant ever caught a transaction in "
               "flight; the sweep is not exercising in-doubt "
               "resolution";
    }
}

// --- epoch fencing ------------------------------------------------------------

TEST(CrashRecovery, StaleEpochMessagesAreFenced)
{
    // Messages stamped before the view change (e.g. resend-loop copies
    // queued by the dead node's peers) must be rejected on delivery
    // once the epoch advances.
    auto res = core::runOne(crashSpec(EngineKind::Hades, 2, us(30)));
    EXPECT_EQ(res.viewChanges, 1u);
    EXPECT_GT(res.fencedStaleMessages, 0u)
        << "no pre-crash message was fenced after the epoch advanced";
}

// --- determinism of crash_forever runs ----------------------------------------

struct RecoveryFingerprint
{
    Tick simTime = 0;
    std::uint64_t committed = 0;
    std::uint64_t attempts = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netBytes = 0;
    std::uint64_t leaseProbes = 0;
    std::uint64_t viewChanges = 0;
    std::uint64_t promotedRecords = 0;
    std::uint64_t inDoubtCommitted = 0;
    std::uint64_t inDoubtAborted = 0;
    std::uint64_t replayedWrites = 0;
    std::uint64_t fencedStale = 0;

    bool
    operator==(const RecoveryFingerprint &o) const
    {
        return simTime == o.simTime && committed == o.committed &&
               attempts == o.attempts &&
               netMessages == o.netMessages &&
               netBytes == o.netBytes &&
               leaseProbes == o.leaseProbes &&
               viewChanges == o.viewChanges &&
               promotedRecords == o.promotedRecords &&
               inDoubtCommitted == o.inDoubtCommitted &&
               inDoubtAborted == o.inDoubtAborted &&
               replayedWrites == o.replayedWrites &&
               fencedStale == o.fencedStale;
    }
};

RecoveryFingerprint
fingerprint(const core::RunResult &res)
{
    RecoveryFingerprint fp;
    fp.simTime = res.simTime;
    fp.committed = res.stats.committed;
    fp.attempts = res.stats.attempts;
    fp.netMessages = res.stats.netMessages;
    fp.netBytes = res.stats.netBytes;
    fp.leaseProbes = res.leaseProbes;
    fp.viewChanges = res.viewChanges;
    fp.promotedRecords = res.promotedRecords;
    fp.inDoubtCommitted = res.inDoubtCommitted;
    fp.inDoubtAborted = res.inDoubtAborted;
    fp.replayedWrites = res.replayedWrites;
    fp.fencedStale = res.fencedStaleMessages;
    return fp;
}

class RecoveryDeterminism : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(RecoveryDeterminism, CrashForeverRunIsBitReproducible)
{
    auto spec = crashSpec(GetParam(), 2, us(25));
    auto a = fingerprint(core::runOne(spec));
    auto b = fingerprint(core::runOne(spec));
    EXPECT_EQ(a.viewChanges, 1u);
    EXPECT_TRUE(a == b)
        << "crash_forever run is not bit-reproducible under a fixed "
           "seed";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RecoveryDeterminism,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

/** Baseline's lock-all fallback under replication and recovery: a
 *  transaction that writes a record twice must install one durable
 *  image per record, or the backups hold two different images at one
 *  commit sequence. */
TEST(CrashRecovery, BaselineLockModeInstallsOneImagePerRecord)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 36u}) {
        core::RunSpec spec;
        spec.engine = EngineKind::Baseline;
        spec.cluster.numNodes = 3;
        spec.cluster.coresPerNode = 2;
        spec.cluster.slotsPerCore = 2;
        spec.cluster.seed = seed;
        spec.cluster.recovery.enabled = true;
        spec.cluster.tuning.maxSquashesBeforeLockMode = 1;
        spec.replication.degree = 2;
        spec.txnsPerContext = 20;
        spec.scaleKeys = 4000;
        spec.audit = true;
        const auto res = core::runOne(spec);
        EXPECT_EQ(res.stats.committed, 240u) << "seed " << seed;
        EXPECT_GT(res.stats.lockModeFallbacks, 0u) << "seed " << seed;
        EXPECT_EQ(res.divergentRecords, 0u) << "seed " << seed;
    }
}

// --- direct System-level promotion check --------------------------------------

sim::DetachedTask
writeRecords(TxnEngine &eng, ExecCtx ctx, std::uint64_t count)
{
    for (std::uint64_t rec = 0; rec < count; ++rec) {
        txn::TxnProgram prog;
        txn::Request w;
        w.record = rec;
        w.isWrite = true;
        w.delta = std::int64_t(5000 + rec);
        prog.requests.push_back(w);
        co_await eng.run(ctx, prog);
    }
}

TEST(CrashRecovery, ViewChangePromotesEveryRecordOfTheDeadNode)
{
    ClusterConfig cfg;
    cfg.numNodes = 4;
    cfg.coresPerNode = 1;
    cfg.slotsPerCore = 1;
    replica::ReplicationConfig repl;
    repl.degree = 2;
    constexpr std::uint64_t kRecords = 32;
    System sys(cfg, kRecords,
               core::engineRecordBytes(EngineKind::Hades,
                                       cfg.recordPayloadBytes),
               repl);
    auto engine = core::makeEngine(EngineKind::Hades, sys,
                                   cfg.recordPayloadBytes);

    // Commit a write to every record, then fail node 2 after the run
    // has quiesced: the cleanest possible failover (no in-flight
    // transactions, only placement + durable images to move).
    writeRecords(*engine, ExecCtx{0, 0, 0}, kRecords);
    ASSERT_TRUE(sys.kernel.run());

    const NodeId dead = 2;
    std::uint64_t owned = 0;
    for (std::uint64_t r = 0; r < kRecords; ++r)
        owned += sys.placement.homeOf(r) == dead;
    ASSERT_GT(owned, 0u) << "placement never homed anything at node 2";

    sys.network.markNodeDead(dead);
    recovery::RecoveryManager recov(sys, *engine);
    recov.viewChange(dead);

    EXPECT_EQ(recov.stats().viewChanges, 1u);
    EXPECT_EQ(recov.stats().promotedRecords, owned);
    for (std::uint64_t r = 0; r < kRecords; ++r) {
        EXPECT_NE(sys.placement.homeOf(r), dead)
            << "record " << r << " still homed at the dead node";
        // The new primary serves the committed value.
        EXPECT_EQ(sys.data.read(r), std::int64_t(5000 + r));
    }
    // Every live backup still matches ground truth after the re-homing
    // (the dead node's ring slot just goes empty).
    EXPECT_EQ(sys.replicas->divergentRecords(
                  sys.data,
                  [&](std::uint64_t r) {
                      return sys.placement.homeOf(r);
                  }),
              0u);
    // A second declaration of the same death is a no-op.
    recov.viewChange(dead);
    EXPECT_EQ(recov.stats().viewChanges, 1u);
}

} // namespace
} // namespace hades
