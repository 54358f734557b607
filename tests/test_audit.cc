/**
 * @file
 * Tests for the protocol correctness auditor.
 *
 * Three groups:
 *  - history-audit unit tests: hand-crafted observation sets, both
 *    known-good (must be accepted) and known-bad (write skew, lost
 *    update, fractured read, phantom version, dirty write, dangling
 *    txn -- every one must be rejected with the right violation kind);
 *  - structural-hook unit tests: the Bloom/Find-LLC-Tags/epoch/drain
 *    checks fire on fabricated hardware misbehaviour and stay silent
 *    on correct behaviour;
 *  - integration: every engine passes a fully audited run, fault-free
 *    and under message-level chaos, and enabling the auditor does not
 *    perturb the simulation (audited == unaudited, bit for bit).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "audit/auditor.hh"
#include "audit/history_graph.hh"
#include "bloom/bloom_filter.hh"
#include "bloom/split_write_bloom.hh"
#include "core/runner.hh"

namespace hades
{
namespace
{

using audit::AuditReport;
using audit::Auditor;
using audit::TxnObservation;
using audit::ViolationKind;
using protocol::EngineKind;

// --- history-audit unit tests ------------------------------------------------

TxnObservation
obs(std::uint64_t id, bool committed,
    std::vector<audit::ReadObs> reads,
    std::vector<audit::WriteObs> writes)
{
    TxnObservation o;
    o.id = id;
    o.engineId = id;
    o.committed = committed;
    o.aborted = !committed;
    o.reads = std::move(reads);
    o.writes = std::move(writes);
    return o;
}

AuditReport
audited(const std::vector<TxnObservation> &history)
{
    AuditReport report;
    audit::auditHistory(history, report);
    return report;
}

TEST(HistoryAudit, EmptyHistoryIsClean)
{
    auto report = audited({});
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(HistoryAudit, SerialHistoryAccepted)
{
    // T1 installs r1@1 and r2@1; T2 reads both and overwrites r1.
    auto report = audited({
        obs(1, true, {}, {{1, 1}, {2, 1}}),
        obs(2, true, {{1, 1}, {2, 1}}, {{1, 2}}),
        obs(3, true, {{1, 2}}, {{2, 2}}),
    });
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.committedTxns, 3u);
    // WW r1: T1->T2. WR: T1->T2 (x2), T2->T3. WW r2: T1->T3.
    // RW: T2(read r2@1) -> T3.
    EXPECT_GT(report.graphEdges, 0u);
}

TEST(HistoryAudit, AbortsAndPreRunReadsAccepted)
{
    // Reads of version 0 (pre-run state) need no audited writer, and
    // a clean abort contributes nothing to the history.
    auto report = audited({
        obs(1, true, {{7, 0}}, {{7, 1}}),
        obs(2, false, {{7, 1}}, {}),
    });
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.committedTxns, 1u);
    EXPECT_EQ(report.abortedTxns, 1u);
}

TEST(HistoryAudit, WriteSkewCycleRejected)
{
    // Classic write skew: both read {A, B} at the initial state, then
    // T1 overwrites A and T2 overwrites B. RW edges form T1 -> T2 ->
    // T1: not serializable, must be rejected.
    auto report = audited({
        obs(1, true, {{1, 0}, {2, 0}}, {{1, 1}}),
        obs(2, true, {{1, 0}, {2, 0}}, {{2, 1}}),
    });
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ViolationKind::DependencyCycle))
        << report.summary();
}

TEST(HistoryAudit, LostUpdateRejected)
{
    // Two committed writers installed the same version of record 4:
    // one of them clobbered the other (lost update).
    auto report = audited({
        obs(1, true, {{4, 0}}, {{4, 1}}),
        obs(2, true, {{4, 0}}, {{4, 1}}),
    });
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ViolationKind::BrokenVersionChain))
        << report.summary();
}

TEST(HistoryAudit, VersionGapRejected)
{
    // Versions 1 and 3 audited but nobody installed 2: some write
    // bypassed the audit (or the store).
    auto report = audited({
        obs(1, true, {}, {{9, 1}}),
        obs(2, true, {{9, 1}}, {{9, 3}}),
    });
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ViolationKind::BrokenVersionChain))
        << report.summary();
}

TEST(HistoryAudit, FracturedReadRejected)
{
    // T1 writes A@1 and B@1 atomically. T2 reads A@1 (post-T1) but
    // B@0 (pre-T1): it saw half of T1.
    auto report = audited({
        obs(1, true, {}, {{1, 1}, {2, 1}}),
        obs(2, true, {{1, 1}, {2, 0}}, {}),
    });
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ViolationKind::FracturedRead))
        << report.summary();
}

TEST(HistoryAudit, PhantomVersionRejected)
{
    // A read observed version 5 of record 3, which no audited
    // transaction installed (first audited version is 1).
    auto report = audited({
        obs(1, true, {}, {{3, 1}}),
        obs(2, true, {{3, 5}}, {}),
    });
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ViolationKind::PhantomVersion))
        << report.summary();
}

TEST(HistoryAudit, DirtyWriteRejected)
{
    // An aborted transaction's write reached the committed store.
    auto report = audited({
        obs(1, false, {}, {{5, 1}}),
    });
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ViolationKind::DirtyWrite))
        << report.summary();
}

TEST(HistoryAudit, DanglingTxnRejected)
{
    TxnObservation o = obs(1, false, {{1, 0}}, {});
    o.aborted = false; // never closed
    auto report = audited({o});
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ViolationKind::DanglingTxn))
        << report.summary();
}

// --- structural-hook unit tests ----------------------------------------------

TEST(AuditorHooks, CleanRunThroughAllHooksPasses)
{
    Auditor a;
    std::uint64_t t = a.begin(0x42);
    a.noteRead(t, 1, 0);
    a.noteWrite(t, 1, 1);
    a.noteCommit(t);

    a.noteFilterProbe(true, true, "test-probe");   // true positive
    a.noteFilterProbe(true, false, "test-probe");  // false positive: ok
    a.noteFilterProbe(false, false, "test-probe"); // true negative

    bloom::BloomFilter bf;
    bf.insert(0x40);
    bf.insert(0x80);
    a.checkFilterCovers(bf, std::unordered_set<Addr>{0x40, 0x80},
                        "test-covers");

    a.noteLockAcquire(0x123 | (std::uint64_t(3) << 48));
    a.noteLockAcquire(0x123 | (std::uint64_t(4) << 48));
    a.noteDrained("test-structure", 0, 0);

    auto report = a.finalize();
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.filterProbesChecked, 5u);
    EXPECT_EQ(report.lockAcquiresChecked, 2u);
}

TEST(AuditorHooks, FilterFalseNegativeCaught)
{
    Auditor a;
    a.noteFilterProbe(false, true, "test-probe");
    auto report = a.finalize();
    EXPECT_TRUE(report.has(ViolationKind::BloomFalseNegative))
        << report.summary();
}

TEST(AuditorHooks, FilterCoverageGapCaught)
{
    Auditor a;
    bloom::BloomFilter bf; // empty: contains nothing
    a.checkFilterCovers(bf, std::unordered_set<Addr>{0x40},
                        "test-covers");
    auto report = a.finalize();
    EXPECT_TRUE(report.has(ViolationKind::BloomFalseNegative))
        << report.summary();
}

TEST(AuditorHooks, FindTagsExactMatchPasses)
{
    bloom::SplitWriteBloomFilter split(SplitWriteBloomParams{}, 4096);
    split.insert(0x1000);
    split.insert(0x2040);
    Auditor a;
    a.noteFindTags(7, {0x1000, 0x2040}, {0x1000, 0x2040}, &split);
    auto report = a.finalize();
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.findTagsChecked, 1u);
}

TEST(AuditorHooks, FindTagsLostLineCaught)
{
    // The enumeration came back short: a WrTX tag was lost.
    Auditor a;
    a.noteFindTags(7, {}, {0x1000}, nullptr);
    auto report = a.finalize();
    EXPECT_TRUE(report.has(ViolationKind::FindTagsMismatch))
        << report.summary();
}

TEST(AuditorHooks, FindTagsForeignLineCaught)
{
    // The enumeration returned a line the transaction never wrote.
    Auditor a;
    a.noteFindTags(7, {0x1000, 0x9000}, {0x1000}, nullptr);
    auto report = a.finalize();
    EXPECT_TRUE(report.has(ViolationKind::FindTagsMismatch))
        << report.summary();
}

TEST(AuditorHooks, FindTagsUncoveredBySplitFilterCaught)
{
    // The written line was never inserted into the split signature:
    // WrBF2's enable bit cannot cover its LLC set.
    bloom::SplitWriteBloomFilter split(SplitWriteBloomParams{}, 4096);
    Auditor a;
    a.noteFindTags(7, {0x1000}, {0x1000}, &split);
    auto report = a.finalize();
    EXPECT_FALSE(report.ok()) << report.summary();
}

TEST(AuditorHooks, LockEpochRegressionCaught)
{
    Auditor a;
    a.noteLockAcquire(0x123 | (std::uint64_t(5) << 48));
    a.noteLockAcquire(0x123 | (std::uint64_t(3) << 48));
    auto report = a.finalize();
    EXPECT_TRUE(report.has(ViolationKind::LockEpochRegression))
        << report.summary();
}

TEST(AuditorHooks, LockEpochWrapTolerated)
{
    // The 14-bit epoch field wraps; a jump from near the top back to
    // a small value is a wrap, not a regression.
    Auditor a;
    a.noteLockAcquire(0x123 | (std::uint64_t(0x3ffe) << 48));
    a.noteLockAcquire(0x123 | (std::uint64_t(1) << 48));
    // Distinct contexts track epochs independently.
    a.noteLockAcquire(0x456 | (std::uint64_t(9) << 48));
    auto report = a.finalize();
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(AuditorHooks, StateLeakCaught)
{
    Auditor a;
    a.noteDrained("llc-wrtx-tags", 1, 3);
    auto report = a.finalize();
    EXPECT_TRUE(report.has(ViolationKind::StateLeak))
        << report.summary();
}

// --- integration: audited runs through every engine --------------------------

struct AuditedRunCase
{
    EngineKind engine;
    // Full-width rather than bool: with no padding bytes in the struct,
    // the byte dump gtest appends to each test name is the same on
    // every run instead of echoing uninitialised stack contents.
    std::uint32_t faulty;
};
static_assert(sizeof(AuditedRunCase) ==
              sizeof(EngineKind) + sizeof(std::uint32_t));

class AuditedRun : public ::testing::TestWithParam<AuditedRunCase>
{};

core::RunSpec
smallSpec(EngineKind kind, bool faulty)
{
    core::RunSpec spec;
    spec.engine = kind;
    spec.cluster.numNodes = 2;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 1;
    spec.cluster.seed = 11;
    spec.txnsPerContext = 25;
    spec.scaleKeys = 2'000;
    spec.audit = true;
    if (faulty) {
        spec.cluster.faults.enabled = true;
        spec.cluster.faults.dropAll(0.02);
        spec.cluster.faults.dupAll(0.05);
        spec.cluster.faults.delayAll(0.10);
        spec.cluster.tuning.retryTimeoutBase = us(4);
        spec.cluster.tuning.retryTimeoutCap = us(32);
        spec.cluster.tuning.maxCommitResends = 6;
    }
    return spec;
}

/**
 * A full audited run must pass for every engine, fault-free and under
 * message chaos: serializable history, no fractured reads, no hardware
 * false negatives, everything drained. runOne() panics on violation,
 * so reaching the assertions is the pass.
 */
TEST_P(AuditedRun, PassesFullAudit)
{
    const auto p = GetParam();
    auto res = core::runOne(smallSpec(p.engine, p.faulty));
    EXPECT_TRUE(res.audited);
    EXPECT_EQ(res.auditedCommits, res.stats.committed);
    EXPECT_GT(res.auditedCommits, 0u);
    // Contended small key space: the graph must have real edges.
    EXPECT_GT(res.auditGraphEdges, 0u);
    if (p.engine != EngineKind::Baseline || p.faulty) {
        // These engines take lock/filter paths the auditor checks;
        // fault-free Baseline may commit without ever locking a
        // remote record, but it still must audit its history.
        EXPECT_GT(res.auditChecks, 0u);
    }
}

std::string
auditedRunName(const ::testing::TestParamInfo<AuditedRunCase> &info)
{
    std::string n =
        info.param.engine == EngineKind::Baseline ? "Baseline"
        : info.param.engine == EngineKind::HadesHybrid ? "HadesH"
                                                       : "Hades";
    return n + (info.param.faulty ? "Faulty" : "Clean");
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, AuditedRun,
    ::testing::Values(
        AuditedRunCase{EngineKind::Baseline, false},
        AuditedRunCase{EngineKind::Hades, false},
        AuditedRunCase{EngineKind::HadesHybrid, false},
        AuditedRunCase{EngineKind::Baseline, true},
        AuditedRunCase{EngineKind::Hades, true},
        AuditedRunCase{EngineKind::HadesHybrid, true}),
    auditedRunName);

/**
 * The auditor is purely observational: the same spec with and without
 * it must produce identical simulated outcomes (time, commits,
 * messages, latency percentiles).
 */
TEST(AuditedRun, AuditDoesNotPerturbTheRun)
{
    for (auto kind : {EngineKind::Baseline, EngineKind::Hades,
                      EngineKind::HadesHybrid}) {
        auto spec = smallSpec(kind, false);
        spec.audit = false;
        auto plain = core::runOne(spec);
        spec.audit = true;
        auto checked = core::runOne(spec);

        EXPECT_FALSE(plain.audited);
        EXPECT_TRUE(checked.audited);
        EXPECT_EQ(plain.simTime, checked.simTime);
        EXPECT_EQ(plain.stats.committed, checked.stats.committed);
        EXPECT_EQ(plain.stats.attempts, checked.stats.attempts);
        EXPECT_EQ(plain.stats.netMessages, checked.stats.netMessages);
        EXPECT_EQ(plain.stats.netBytes, checked.stats.netBytes);
        EXPECT_EQ(plain.p95LatencyUs, checked.p95LatencyUs);
        EXPECT_EQ(plain.p50LatencyUs, checked.p50LatencyUs);
    }
}

/** Replicated HADES commits must also audit clean (Section V-A). */
TEST(AuditedRun, ReplicatedRunPassesAudit)
{
    auto spec = smallSpec(EngineKind::Hades, false);
    spec.replication.degree = 2;
    auto res = core::runOne(spec);
    EXPECT_TRUE(res.audited);
    EXPECT_GT(res.replicatedCommits, 0u);
}

} // namespace
} // namespace hades
