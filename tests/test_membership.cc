/**
 * @file
 * Tests for elastic membership (src/recovery/membership.hh): CM-driven
 * node join, planned drain, and live record migration under load.
 *
 * Every test runs end-to-end through core::runOne with auditing forced
 * on, so a serializability violation or a lost write panics underneath
 * the counter assertions. The divergence predicate (live backups vs
 * ground truth) is the same one the chaos fuzzer fails runs on.
 *
 * Coverage:
 *  - a clean scheduled join + planned drain completes: every record
 *    migrates, the drained node leaves, nothing diverges;
 *  - membership runs are bit-reproducible and bit-identical across
 *    kernel shard counts {1, 2, 4, 8} (the acceptance criterion);
 *  - a node dies mid-drain and mid-join at swept instants: recovery's
 *    view change composes with the aborted membership op, and the
 *    surviving cluster still converges with zero divergent records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/result_hash.hh"
#include "core/runner.hh"

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

/** A six-node cluster where node 5 starts as a spare and joins at
 *  30 us while member node 1 drains away starting at 60 us -- both
 *  migrations run under the live workload. */
core::RunSpec
membershipSpec(EngineKind engine,
               workload::AppKind app = workload::AppKind::Smallbank)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.cluster.numNodes = 6;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.seed = 42;
    spec.cluster.tuning.retryTimeoutBase = us(4);
    spec.cluster.tuning.retryTimeoutCap = us(32);
    spec.cluster.tuning.maxCommitResends = 6;
    spec.mix = {core::MixEntry{app, kvs::StoreKind::HashTable}};
    spec.txnsPerContext = 6;
    spec.scaleKeys = 4'000;
    spec.replication.degree = 2;
    spec.cluster.recovery.enabled = true;
    spec.cluster.membership.initialMembers = 5;
    spec.cluster.membership.joins.push_back({NodeId(5), us(30)});
    spec.cluster.membership.drains.push_back({NodeId(1), us(60)});
    spec.audit = true;
    return spec;
}

/** Permanently fail-stop @p victim at @p at on top of the join/drain
 *  schedule (the crash-during-migration scenarios). */
void
addCrash(core::RunSpec &spec, NodeId victim, Tick at)
{
    spec.cluster.faults.enabled = true;
    FaultConfig::NodeEvent ev;
    ev.node = victim;
    ev.at = at;
    ev.crash = true;
    ev.forever = true;
    spec.cluster.faults.nodeEvents.push_back(ev);
}

// --- clean join + drain -------------------------------------------------------

class Membership : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(Membership, CleanJoinAndDrainComplete)
{
    auto res = core::runOne(membershipSpec(GetParam()));
    EXPECT_TRUE(res.membershipEnabled);
    EXPECT_TRUE(res.membershipComplete)
        << "a fault-free join + drain schedule must finish";
    EXPECT_EQ(res.joinsCompleted, 1u);
    EXPECT_GT(res.recordsMigrated, 0u);
    EXPECT_GT(res.migrationBatches, 1u)
        << "migration must be throttled into multiple batches, not one "
           "bulk copy";
    EXPECT_GT(res.drainDurationEvents, 0u);
    EXPECT_EQ(res.viewChanges, 0u)
        << "a planned drain is voluntary: no failure detection, no "
           "view change";
    EXPECT_EQ(res.divergentRecords, 0u);
    // The spare contributes no client load before it joins and the
    // drained node stops at drain start, so commits stay strictly
    // below the all-member quota but well above a single node's.
    const std::uint64_t quota = 6u * 2u * 2u * 6u;
    EXPECT_GT(res.stats.committed, quota / 2);
    EXPECT_LT(res.stats.committed, quota);
}

TEST_P(Membership, RunIsBitReproducible)
{
    auto spec = membershipSpec(GetParam());
    auto a = core::runOne(spec);
    auto b = core::runOne(spec);
    EXPECT_EQ(core::hashResult(a), core::hashResult(b))
        << engineTag(GetParam())
        << ": membership run is not bit-reproducible under a fixed "
           "seed";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, Membership,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- the handoff fence ---------------------------------------------------------

TEST(Membership, BaselineHonoursADeliveredStalePlacementSquash)
{
    // A migration batch squashes the in-flight attempts that touched a
    // record and, when the router reports Delivered, moves the record
    // in the same batch. An attempt that ignores the squash keeps
    // writing at the old home; on these seeds that closed a dependency
    // cycle, and the auditor panicked.
    for (std::uint64_t seed : {24u, 25u, 33u, 54u, 55u}) {
        core::RunSpec spec;
        spec.engine = EngineKind::Baseline;
        spec.cluster.numNodes = 5;
        spec.cluster.coresPerNode = 2;
        spec.cluster.slotsPerCore = 2;
        spec.cluster.seed = seed;
        spec.mix = {core::MixEntry{workload::AppKind::YcsbA,
                                   kvs::StoreKind::HashTable}};
        spec.txnsPerContext = 40;
        spec.scaleKeys = 300;
        spec.replication.degree = 1;
        spec.cluster.recovery.enabled = true;
        spec.cluster.membership.initialMembers = 4;
        spec.cluster.membership.joins.push_back({NodeId(4), us(10)});
        spec.cluster.membership.drains.push_back({NodeId(1), us(30)});
        spec.cluster.membership.migrateBatchRecords = 4;
        spec.audit = true;
        auto res = core::runOne(spec);
        EXPECT_TRUE(res.membershipComplete) << "seed " << seed;
        EXPECT_GT(res.stats.squashes[std::size_t(
                      txn::SquashReason::StalePlacement)],
                  0u)
            << "seed " << seed << ": no squash was honoured";
        EXPECT_EQ(res.divergentRecords, 0u) << "seed " << seed;
    }
}

// --- shard-count invariance (the acceptance criterion) ------------------------

TEST(Membership, YcsbAJoinDrainIsBitIdenticalAcrossShardCounts)
{
    // The acceptance run: YCSB-A under one join + one drain, audited,
    // replayed on kernel shard counts {1, 2, 4, 8}. Sharding is
    // bit-identical by contract and membership must not break it.
    auto spec = membershipSpec(EngineKind::Hades,
                               workload::AppKind::YcsbA);
    spec.shards = 1;
    auto oracle = core::runOne(spec);
    EXPECT_TRUE(oracle.membershipComplete);
    EXPECT_EQ(oracle.divergentRecords, 0u);
    const auto want = core::hashResult(oracle);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        auto sharded = spec;
        sharded.shards = shards;
        auto res = core::runOne(sharded);
        // The node-sharded kernel caps lanes at the node count.
        EXPECT_EQ(res.shardsUsed, std::min(shards, 6u));
        EXPECT_EQ(core::hashResult(res), want)
            << "shards=" << shards
            << " diverged from the serial oracle";
    }
}

// --- crash during migration ---------------------------------------------------

TEST(Membership, NodeDiesMidDrainAtSweptInstants)
{
    // Fail-stop the draining node at instants inside its migration
    // window (drain starts at 60 us; its ~800-record footprint takes
    // far longer than 20 us to move at 32 records / 4 us). The drain
    // aborts, recovery's view change re-homes whatever was still
    // homed there, and the survivors converge: zero divergence.
    for (auto engine : {EngineKind::Baseline, EngineKind::Hades,
                        EngineKind::HadesHybrid}) {
        for (Tick at : {us(62), us(70), us(80)}) {
            auto spec = membershipSpec(engine);
            addCrash(spec, 1, at);
            auto res = core::runOne(spec);
            EXPECT_EQ(res.viewChanges, 1u)
                << engineTag(engine) << " crash at " << at;
            EXPECT_FALSE(res.membershipComplete)
                << engineTag(engine) << " crash at " << at
                << ": a drain cut short by a crash must not report "
                   "completion";
            EXPECT_GT(res.promotedRecords, 0u)
                << engineTag(engine) << " crash at " << at
                << ": the dead node still homed records recovery had "
                   "to re-home";
            EXPECT_EQ(res.divergentRecords, 0u)
                << engineTag(engine) << " crash at " << at;
        }
    }
}

TEST(Membership, NodeDiesMidJoinAtSweptInstants)
{
    // Fail-stop the joining node just after admission (first batches
    // of its 1/6 hash share have landed) and mid-rebalance. Recovery
    // re-homes the records that already moved to it; the join reports
    // aborted, never complete.
    for (auto engine : {EngineKind::Baseline, EngineKind::Hades,
                        EngineKind::HadesHybrid}) {
        for (Tick at : {us(32), us(44)}) {
            auto spec = membershipSpec(engine);
            addCrash(spec, 5, at);
            auto res = core::runOne(spec);
            EXPECT_EQ(res.viewChanges, 1u)
                << engineTag(engine) << " crash at " << at;
            EXPECT_FALSE(res.membershipComplete)
                << engineTag(engine) << " crash at " << at;
            EXPECT_EQ(res.divergentRecords, 0u)
                << engineTag(engine) << " crash at " << at;
        }
    }
}

TEST(Membership, CrashDuringMigrationIsBitIdenticalAcrossShardCounts)
{
    // The composed scenario (join + drain + fail-stop of the draining
    // node) must replay bit-identically on every shard count, like
    // every other run in the tree.
    auto spec = membershipSpec(EngineKind::Hades);
    addCrash(spec, 1, us(70));
    spec.shards = 1;
    auto oracle = core::runOne(spec);
    EXPECT_EQ(oracle.viewChanges, 1u);
    EXPECT_EQ(oracle.divergentRecords, 0u);
    const auto want = core::hashResult(oracle);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        auto sharded = spec;
        sharded.shards = shards;
        auto res = core::runOne(sharded);
        EXPECT_EQ(core::hashResult(res), want)
            << "shards=" << shards
            << " diverged from the serial oracle";
    }
}

} // namespace
} // namespace hades
