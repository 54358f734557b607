/**
 * @file
 * Robustness tests for the partition/corruption fault model and the
 * configuration-manager replica group (PR: partition tolerance,
 * cascading failures, CM failover):
 *
 *  - link-level partition windows: directed vs symmetric blocking,
 *    scheduled healing, partitionDrops/partitionHeals counters, and
 *    full recovery of the workload once the window closes;
 *  - payload corruption: NIC CRC rejection is indistinguishable from
 *    loss at the protocol layer and the retry machinery absorbs it;
 *  - CM failover: a crashed primary CM is deterministically succeeded
 *    by the next live slot, which then runs the dead node's view
 *    change; cascading crashes produce one view change each;
 *  - split-brain rule: a minority-partitioned CM refuses to advance
 *    the epoch until the partition heals;
 *  - recovery-during-recovery: a second crash_forever at any instant
 *    around an in-flight view change still converges with zero
 *    divergent replicas;
 *  - regression: duplicated confirm-Acks crossing an epoch fence stay
 *    idempotent (reliablePost dup+fence interaction);
 *  - RobustnessTuning knobs actually steer the retry machinery.
 *
 * Every scenario is double-run under a fixed seed: the fingerprints
 * must match bit-for-bit at any instant sweep, per the determinism
 * contract (DESIGN.md section 8).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/runner.hh"
#include "net/network.hh"

namespace hades
{
namespace
{

using protocol::EngineKind;

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

/** Small replicated cluster with fast fault-recovery tuning. */
core::RunSpec
baseSpec(EngineKind engine)
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
    spec.cluster.faults.enabled = true;
    return spec;
}

/** baseSpec plus replication + recovery (crash scenarios). */
core::RunSpec
recoverySpec(EngineKind engine)
{
    auto spec = baseSpec(engine);
    spec.replication.degree = 2;
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

constexpr std::uint64_t kContexts = 5 * 2 * 2;
constexpr std::uint64_t kFullQuota = kContexts * 8;

/** The counters that must be bit-identical across double runs. */
struct Fingerprint
{
    Tick simTime = 0;
    std::uint64_t committed = 0, attempts = 0, netMessages = 0,
                  netBytes = 0, partitionDrops = 0, corruptDrops = 0,
                  viewChanges = 0, cmFailovers = 0, quorumRefusals = 0,
                  staleLeaseGrants = 0, fenced = 0, divergent = 0;

    bool operator==(const Fingerprint &) const = default;
};

Fingerprint
fingerprint(const core::RunResult &res)
{
    return Fingerprint{res.simTime,
                       res.stats.committed,
                       res.stats.attempts,
                       res.stats.netMessages,
                       res.stats.netBytes,
                       res.partitionDrops,
                       res.corruptDrops,
                       res.viewChanges,
                       res.cmFailovers,
                       res.quorumRefusals,
                       res.staleLeaseGrants,
                       res.fencedStaleMessages,
                       res.divergentRecords};
}

// --- PartitionWindow semantics (pure unit checks) -----------------------------

TEST(PartitionModel, DirectedWindowBlocksOnlyThatEdgeInsideTheWindow)
{
    FaultConfig::PartitionWindow w;
    w.edges.emplace_back(1, 3);
    w.at = us(10);
    w.until = us(20);
    EXPECT_TRUE(w.blocks(1, 3, us(10)));
    EXPECT_TRUE(w.blocks(1, 3, us(19)));
    EXPECT_FALSE(w.blocks(1, 3, us(9))) << "window not yet open";
    EXPECT_FALSE(w.blocks(1, 3, us(20))) << "healed at `until`";
    EXPECT_FALSE(w.blocks(3, 1, us(15)))
        << "asymmetric by default: reverse direction must still work";
    EXPECT_FALSE(w.blocks(1, 2, us(15)));

    w.symmetric = true;
    EXPECT_TRUE(w.blocks(3, 1, us(15)))
        << "symmetric window must block the reverse edge too";
}

TEST(PartitionModel, IsolateCutsEveryEdgeBothWays)
{
    auto w = FaultConfig::PartitionWindow::isolate(2, 5, us(5), us(15));
    for (NodeId n = 0; n < 5; ++n) {
        if (n == 2)
            continue;
        EXPECT_TRUE(w.blocks(2, n, us(10)));
        EXPECT_TRUE(w.blocks(n, 2, us(10)));
    }
    EXPECT_FALSE(w.blocks(0, 1, us(10)))
        << "edges between other nodes must stay up";
}

TEST(PartitionModel, HealAccountingIsLazyAndCountsOnlyPassedDeadlines)
{
    FaultConfig f;
    f.partitions.push_back(
        FaultConfig::PartitionWindow::isolate(1, 5, us(5), us(15)));
    f.partitions.push_back(
        FaultConfig::PartitionWindow::isolate(2, 5, us(5), kTickMax));
    EXPECT_EQ(f.partitionsHealedBy(us(10)), 0u);
    EXPECT_EQ(f.partitionsHealedBy(us(15)), 1u);
    EXPECT_EQ(f.partitionsHealedBy(kTickMax - 1), 1u)
        << "a never-healing window must not count as healed";
    EXPECT_TRUE(f.linkBlocked(1, 0, us(6)));
    EXPECT_FALSE(f.linkBlocked(1, 0, us(16)));
}

// --- partitions end-to-end ----------------------------------------------------

class Partitions : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(Partitions, WorkloadSurvivesAnIsolationWindowThatHeals)
{
    // Isolate node 3 for 20us mid-run. Sends across the cut are
    // dropped and counted; the RC retransmission and protocol resend
    // machinery recovers everything after the heal, so the full quota
    // still commits and the auditor stays green.
    auto spec = baseSpec(GetParam());
    spec.cluster.faults.partitions.push_back(
        FaultConfig::PartitionWindow::isolate(3, 5, us(10), us(30)));
    auto res = core::runOne(spec);
    EXPECT_GT(res.partitionDrops, 0u)
        << "the window never dropped anything; it is not being hit";
    EXPECT_EQ(res.partitionHeals, 1u);
    EXPECT_EQ(res.stats.committed, kFullQuota)
        << "a healed partition must not cost any transaction";
    EXPECT_EQ(res.faultDrops, res.partitionDrops)
        << "partition drops must fold into the faultDrops total";
}

TEST_P(Partitions, PartitionRunIsBitReproducible)
{
    auto spec = baseSpec(GetParam());
    spec.cluster.faults.partitions.push_back(
        FaultConfig::PartitionWindow::isolate(3, 5, us(10), us(30)));
    auto a = fingerprint(core::runOne(spec));
    auto b = fingerprint(core::runOne(spec));
    EXPECT_TRUE(a == b) << "partitioned run is not bit-reproducible";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, Partitions,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- corruption end-to-end ----------------------------------------------------

class Corruption : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(Corruption, CrcRejectedCopiesBehaveLikeLossAndAreRecovered)
{
    auto spec = baseSpec(GetParam());
    spec.cluster.faults.corruptAll(0.05);
    auto res = core::runOne(spec);
    EXPECT_GT(res.corruptDrops, 0u)
        << "corruption probability never corrupted anything";
    EXPECT_EQ(res.stats.committed, kFullQuota)
        << "CRC-rejected copies must be retried like drops, not lost";
    auto again = fingerprint(core::runOne(spec));
    EXPECT_TRUE(fingerprint(res) == again)
        << "corrupting run is not bit-reproducible";
}

TEST_P(Corruption, CommitPhaseVerbsSurviveTargetedCorruption)
{
    // Corrupt exactly the verbs the engine's commit path depends on
    // (Intend-to-commit/Validation for the HADES engines, the RDMA
    // lock/write verbs for the Baseline): at the protocol layer the
    // CRC rejection must be indistinguishable from a drop, so the
    // resend paths -- not any corruption-specific handling -- recover.
    auto spec = baseSpec(GetParam());
    auto &corrupt = spec.cluster.faults.corruptProb;
    if (GetParam() == EngineKind::Baseline) {
        corrupt[std::size_t(net::MsgType::RdmaCas)] = 0.2;
        corrupt[std::size_t(net::MsgType::RdmaWrite)] = 0.2;
    } else {
        corrupt[std::size_t(net::MsgType::IntendToCommit)] = 0.2;
        corrupt[std::size_t(net::MsgType::Validation)] = 0.2;
    }
    auto res = core::runOne(spec);
    EXPECT_GT(res.corruptDrops, 0u);
    EXPECT_EQ(res.stats.committed, kFullQuota);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, Corruption,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- CM failover --------------------------------------------------------------

class CmFailover : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(CmFailover, CrashedPrimaryCmIsSucceededAndFailedOver)
{
    // Node 0 is the initial acting primary of the CM group {0,1,2}.
    // Killing it forces the standby succession: exactly one CM
    // failover, then the successor runs the ordinary view change for
    // node 0's records. Nothing may stay divergent afterwards.
    auto spec = recoverySpec(GetParam());
    addCrash(spec, 0, us(25));
    auto res = core::runOne(spec);
    EXPECT_EQ(res.cmFailovers, 1u)
        << "the standby never succeeded the dead primary";
    EXPECT_EQ(res.viewChanges, 1u);
    EXPECT_GT(res.promotedRecords, 0u);
    EXPECT_EQ(res.divergentRecords, 0u);
}

TEST_P(CmFailover, CascadingCrashYieldsOneViewChangeEach)
{
    // First the CM primary dies (failover), then a data node dies
    // mid-recovery: the successor must declare both in node order, and
    // the final state must hold every committed value on every live
    // backup.
    auto spec = recoverySpec(GetParam());
    addCrash(spec, 0, us(20));
    addCrash(spec, 3, us(40));
    auto res = core::runOne(spec);
    EXPECT_EQ(res.cmFailovers, 1u);
    EXPECT_EQ(res.viewChanges, 2u)
        << "each permanent crash must get exactly one view change";
    EXPECT_EQ(res.divergentRecords, 0u);
}

TEST_P(CmFailover, PrimaryCrashWithProbesOutstandingIsReproducible)
{
    // Lease probes are kept in flight (loss-lengthened round trips)
    // when the primary dies, so grants race the failover; the CM-epoch
    // stamp on each grant decides staleness deterministically. The
    // scenario must converge identically on every run.
    auto spec = recoverySpec(GetParam());
    spec.cluster.faults.dropProb[std::size_t(net::MsgType::Lease)] =
        0.3;
    addCrash(spec, 0, us(21));
    auto a = fingerprint(core::runOne(spec));
    auto b = fingerprint(core::runOne(spec));
    EXPECT_EQ(a.cmFailovers, 1u);
    EXPECT_EQ(a.divergent, 0u);
    EXPECT_TRUE(a == b)
        << "CM failover with in-flight grants is not reproducible";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CmFailover,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- split-brain rule ---------------------------------------------------------

TEST(SplitBrain, MinorityPartitionedCmRefusesToAdvanceTheEpoch)
{
    // Node 0 (acting CM primary) is cut off from everyone -- including
    // its group peers 1 and 2 -- while node 4 permanently crashes
    // inside the window. With only a minority reachable, the primary
    // must refuse the declaration (counted) until the partition heals,
    // then run the view change normally.
    auto spec = recoverySpec(EngineKind::Hades);
    spec.cluster.faults.partitions.push_back(
        FaultConfig::PartitionWindow::isolate(0, 5, us(10), us(90)));
    addCrash(spec, 4, us(20));
    auto res = core::runOne(spec);
    EXPECT_GT(res.quorumRefusals, 0u)
        << "the minority-partitioned CM never refused a declaration";
    EXPECT_EQ(res.viewChanges, 1u)
        << "the declaration must proceed once the partition heals";
    EXPECT_EQ(res.cmFailovers, 0u)
        << "a partitioned (not dead) primary must never be succeeded";
    EXPECT_EQ(res.divergentRecords, 0u);
    EXPECT_GE(res.simTime, us(90))
        << "recovery finished before the partition healed?";

    auto again = fingerprint(core::runOne(spec));
    EXPECT_TRUE(fingerprint(res) == again);
}

// --- recovery during recovery -------------------------------------------------

TEST(RecoveryDuringRecovery, SecondCrashAtAnyInstantStillConverges)
{
    // First crash at us(25); sweep the second crash across instants
    // spanning the whole detection + view-change window of the first
    // (same instant, inside the lease wait, right at declaration,
    // after it). Every case must end with two view changes and zero
    // divergent replicas, audited, and bit-reproducibly.
    for (auto engine : {EngineKind::Baseline, EngineKind::Hades,
                        EngineKind::HadesHybrid}) {
        for (Tick second : {us(25), us(40), us(55), us(70), us(85)}) {
            auto spec = recoverySpec(engine);
            addCrash(spec, 2, us(25));
            addCrash(spec, 4, second);
            auto res = core::runOne(spec);
            EXPECT_EQ(res.viewChanges, 2u)
                << engineTag(engine) << " second crash at " << second;
            EXPECT_EQ(res.divergentRecords, 0u)
                << engineTag(engine) << " second crash at " << second;
        }
    }
}

TEST(RecoveryDuringRecovery, SecondCrashSweepIsReproducible)
{
    auto spec = recoverySpec(EngineKind::HadesHybrid);
    addCrash(spec, 2, us(25));
    addCrash(spec, 4, us(55));
    auto a = fingerprint(core::runOne(spec));
    auto b = fingerprint(core::runOne(spec));
    EXPECT_EQ(a.viewChanges, 2u);
    EXPECT_TRUE(a == b);
}

// --- regression: duplicated confirm-Acks across an epoch fence ----------------

class DupAckFence : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(DupAckFence, DuplicatedAcksAcrossTheFenceStayIdempotent)
{
    // Heavy duplication and reordering of the Ack verb (commit Acks
    // AND reliable-channel confirm-Acks ride it) while a crash fences
    // the epoch mid-run: a confirm-Ack duplicated in flight may be
    // delivered once before the fence and once after it, and a fenced
    // copy must count as fenced -- never as a second confirmation or a
    // double-counted commit Ack. The auditor underneath verifies no
    // transaction commits twice; the counters pin determinism.
    auto spec = recoverySpec(GetParam());
    spec.cluster.faults.dupProb[std::size_t(net::MsgType::Ack)] = 0.5;
    spec.cluster.faults.delayProb[std::size_t(net::MsgType::Ack)] =
        0.3;
    addCrash(spec, 2, us(25));
    auto res = core::runOne(spec);
    EXPECT_EQ(res.viewChanges, 1u);
    EXPECT_GT(res.faultDuplicates, 0u)
        << "the dup knob never duplicated an Ack";
    EXPECT_EQ(res.divergentRecords, 0u);
    auto again = fingerprint(core::runOne(spec));
    EXPECT_TRUE(fingerprint(res) == again)
        << "dup+fence interaction is not reproducible";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DupAckFence,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- regression: promote in flight across the re-homing ring switch ----------

class PromoteInFlight : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(PromoteInFlight, RehomedRingIsRepairedDespiteInFlightPromotes)
{
    // Fuzzer-found (seed 38 of the CI matrix): heavy Validation loss
    // stretches a committed transaction's promote across the crash
    // detection window, so at view-change time the new primary holds
    // no durable image of a re-homed record. The old ring's resend
    // loop eventually lands the promote -- but only on the *old*
    // backup set, never on the node that entered the ring when the
    // re-homing changed which primary the walk skips. Step 6b must
    // repair from the authoritative committed value (which the
    // serialization point recorded), not from the new primary's
    // possibly-lagging image.
    auto spec = recoverySpec(GetParam());
    spec.cluster.faults.dropProb[std::size_t(
        net::MsgType::Validation)] = 0.35;
    spec.cluster.faults.dupProb[std::size_t(net::MsgType::RdmaRead)] =
        0.05;
    addCrash(spec, 1, us(24));
    auto res = core::runOne(spec);
    EXPECT_EQ(res.viewChanges, 1u);
    EXPECT_GT(res.stats.committed, 0u);
    EXPECT_EQ(res.divergentRecords, 0u)
        << "a live backup of the re-homed ring misses a committed "
           "value";
    auto again = fingerprint(core::runOne(spec));
    EXPECT_TRUE(fingerprint(res) == again);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PromoteInFlight,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- RobustnessTuning is actually wired through -------------------------------

TEST(RobustnessTuning_, RetryTimingKnobsSteerTheResendMachinery)
{
    // Same lossy scenario under two retry-timeout settings: the number
    // of retransmissions is drop-driven either way, but *when* a lost
    // message is recovered is pure RTO timing, so the completion time
    // must move. This pins the consolidation of the old scattered
    // knobs into ClusterConfig::tuning -- a knob that silently stopped
    // being read would make these runs identical.
    auto spec = baseSpec(EngineKind::Hades);
    spec.cluster.faults.dropAll(0.1);
    auto fast = core::runOne(spec);
    spec.cluster.tuning.retryTimeoutBase = us(16);
    spec.cluster.tuning.retryTimeoutCap = us(64);
    auto slow = core::runOne(spec);
    EXPECT_GT(fast.netRetransmits, 0u);
    EXPECT_NE(fast.simTime, slow.simTime)
        << "retry tuning knobs appear to be dead config";
}

TEST(RobustnessTuning_, LossyReliableChannelLeavesNoRemoteState)
{
    // Every reliablePost resends until it is confirmed, so a lost
    // cleanup, unlock or Validation is always redelivered: the audited
    // end-of-run drain finds no stale Locking Buffer, NIC remote
    // filter or record lock on any node, for any engine.
    for (auto engine : {EngineKind::Baseline, EngineKind::Hades,
                        EngineKind::HadesHybrid}) {
        for (std::uint64_t seed : {42u, 7u}) {
            SCOPED_TRACE(std::string(engineTag(engine)) + " seed " +
                         std::to_string(seed));
            auto spec = baseSpec(engine);
            spec.cluster.seed = seed;
            spec.cluster.faults.dropAll(0.15);
            spec.audit = true;
            auto res = core::runOne(spec);
            EXPECT_TRUE(res.audited);
            EXPECT_EQ(res.stats.committed, kFullQuota);
            EXPECT_GT(res.stats.reliableResends, 0u);
        }
    }
}

} // namespace
} // namespace hades
