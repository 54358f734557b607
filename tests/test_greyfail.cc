/**
 * @file
 * Tests for grey-failure and overload robustness (PR: fail-slow fault
 * model, latency-SLO hedging, admission control with retry budgets):
 *
 *  - unit coverage of the fixed-point SLO tracker (warmup, Q8 EWMA
 *    classification thresholds, transition counters, the sustained-
 *    degraded quarantine trigger) and the admission controller (lazy
 *    token refill, depth-bound shedding, retry-budget ratio, the
 *    deterministic backoff ladders);
 *  - fail-slow injection end-to-end: slow-NIC / slow-link / straggler
 *    windows perturb the run (greyDelays / stragglerReserves), runs
 *    stay bit-reproducible and bit-identical across kernel shard
 *    counts {1, 2, 4, 8};
 *  - hedged remote reads engage against a sustained-slow home node
 *    (hedgedSends / hedgeWins) without breaking the audit;
 *  - admission control sheds under a tight bucket yet never loses
 *    work, and an exhausted retry budget paces retries
 *    (retryBudgetDeferrals) while every context still finishes;
 *  - the retry-timeout ladder (doubling base..cap) is deterministic
 *    across double-runs and shard counts under heavy drops;
 *  - the chaos composition: grey fault -> sustained degraded -> CM
 *    quarantine (live drain) -> crash-forever -> view-change recovery
 *    converges with zero divergent records, audited.
 *
 * Every end-to-end scenario runs through core::runOne with auditing
 * forced on and is double-run under a fixed seed: fingerprints must
 * match bit-for-bit (DESIGN.md section 8).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/result_hash.hh"
#include "core/runner.hh"
#include "net/slo_tracker.hh"
#include "protocol/admission.hh"
#include "sim/kernel.hh"

namespace hades
{
namespace
{

using net::PeerHealth;
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

constexpr EngineKind kAllEngines[] = {
    EngineKind::Baseline,
    EngineKind::HadesHybrid,
    EngineKind::Hades,
};

// ---- SLO tracker units ------------------------------------------------------

SloConfig
trackerConfig()
{
    SloConfig cfg;
    cfg.enabled = true;
    cfg.ewmaShift = 1; // fast EWMA so tests converge in few samples
    cfg.warmupSamples = 4;
    cfg.suspectPct = 250;
    cfg.degradedPct = 500;
    cfg.sustainedSamples = 3;
    return cfg;
}

TEST(SloTracker_, WarmupHoldsClassificationHealthy)
{
    net::SloTracker t(trackerConfig(), 4, us(2));
    // Three grossly slow samples, but warmup is 4: still Healthy.
    for (int i = 0; i < 3; ++i)
        t.observe(0, 1, us(40));
    EXPECT_EQ(t.classify(0, 1), PeerHealth::Healthy);
    EXPECT_EQ(t.stats().suspectTransitions, 0u);
    t.observe(0, 1, us(40));
    EXPECT_EQ(t.classify(0, 1), PeerHealth::Degraded)
        << "past warmup a 20x EWMA must classify Degraded";
}

TEST(SloTracker_, ThresholdsAndTransitionCountersTrack)
{
    net::SloTracker t(trackerConfig(), 4, us(2));
    for (int i = 0; i < 8; ++i)
        t.observe(0, 1, us(2)); // healthy baseline
    EXPECT_EQ(t.classify(0, 1), PeerHealth::Healthy);
    // Degrade: EWMA (alpha 1/2) walks 2 -> 11 -> 15.5 -> ... toward 20.
    t.observe(0, 1, us(20));
    EXPECT_EQ(t.classify(0, 1), PeerHealth::Degraded)
        << "11us EWMA vs 2us healthy = 550% >= degradedPct";
    EXPECT_EQ(t.stats().degradedTransitions, 1u);
    // Recover: EWMA halves toward 2us; first step lands Suspect-range.
    t.observe(0, 1, us(2));
    EXPECT_EQ(t.classify(0, 1), PeerHealth::Suspect);
    EXPECT_EQ(t.stats().suspectTransitions, 1u);
    for (int i = 0; i < 6; ++i)
        t.observe(0, 1, us(2));
    EXPECT_EQ(t.classify(0, 1), PeerHealth::Healthy);
    // Re-degrading counts a second transition.
    for (int i = 0; i < 6; ++i)
        t.observe(0, 1, us(20));
    EXPECT_EQ(t.stats().degradedTransitions, 2u);
}

TEST(SloTracker_, SustainedDegradedPicksTheLowestVictim)
{
    auto cfg = trackerConfig();
    net::SloTracker t(cfg, 4, us(2));
    NodeId victim = 99;
    EXPECT_FALSE(t.sustainedDegraded(victim));
    // Peer 2 goes degraded-and-stays for sustainedSamples (3) streaks
    // past warmup; peer 1 flaps Suspect-and-back (2us/12us alternation
    // keeps its EWMA oscillating 4.5..8.6us, under the 10us degraded
    // line) and never sustains. Observer 0's verdict alone must NOT
    // indict peer 2 -- a fail-slow observer sees everyone as degraded,
    // so the tracker demands a second independent witness.
    for (int i = 0; i < 4 + 3; ++i) {
        t.observe(0, 2, us(30));
        t.observe(0, 1, i % 2 ? us(12) : us(2));
    }
    EXPECT_FALSE(t.sustainedDegraded(victim));
    for (int i = 0; i < 4 + 3; ++i)
        t.observe(3, 2, us(30)); // second witness corroborates
    ASSERT_TRUE(t.sustainedDegraded(victim));
    EXPECT_EQ(victim, NodeId(2));
}

TEST(SloTracker_, SelfAndOutOfRangeObservationsAreIgnored)
{
    net::SloTracker t(trackerConfig(), 3, us(2));
    t.observe(1, 1, us(50));
    t.observe(7, 1, us(50));
    t.observe(1, 7, us(50));
    EXPECT_EQ(t.stats().samples, 0u);
    EXPECT_EQ(t.classify(1, 1), PeerHealth::Healthy);
}

// ---- Admission controller units ---------------------------------------------

AdmissionConfig
tightAdmission()
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.bucketCap = 4;
    cfg.refillTokens = 2;
    cfg.refillInterval = us(2);
    cfg.maxInFlight = 0;
    return cfg;
}

TEST(Admission_, TokenBucketShedsWhenDryAndRefillsLazily)
{
    sim::Kernel k;
    protocol::AdmissionController adm(tightAdmission(), k, 2);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(adm.admit(0)) << "bucket starts full";
    EXPECT_FALSE(adm.admit(0)) << "empty bucket must shed";
    EXPECT_EQ(adm.stats().admittedTxns, 4u);
    EXPECT_EQ(adm.stats().shedTxns, 1u);
    // Advance simulated time two refill intervals: 4 tokens back.
    bool checked = false;
    k.scheduleAt(us(4), [&] {
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(adm.admit(0)) << "lazy refill missed";
        EXPECT_FALSE(adm.admit(0));
        checked = true;
    });
    k.run();
    EXPECT_TRUE(checked);
    // Per-node isolation: node 1's bucket was never touched.
    EXPECT_TRUE(adm.admit(1));
}

TEST(Admission_, DepthBoundShedsIndependentlyOfTokens)
{
    auto cfg = tightAdmission();
    cfg.maxInFlight = 2;
    sim::Kernel k;
    protocol::AdmissionController adm(cfg, k, 1);
    EXPECT_TRUE(adm.admit(0));
    adm.begin(0);
    EXPECT_TRUE(adm.admit(0));
    adm.begin(0);
    EXPECT_FALSE(adm.admit(0)) << "depth 2 >= maxInFlight must shed";
    adm.end(0);
    EXPECT_TRUE(adm.admit(0)) << "freed depth re-admits";
}

TEST(Admission_, RetryBudgetIsARatioOfAdmissions)
{
    auto cfg = tightAdmission();
    cfg.retryBudgetPct = 50;
    sim::Kernel k;
    protocol::AdmissionController adm(cfg, k, 1);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(adm.admit(0));
    // Budget = 4 admitted * 50% = 2 retries.
    ASSERT_TRUE(adm.retryAllowed(0));
    adm.noteRetry(0);
    ASSERT_TRUE(adm.retryAllowed(0));
    adm.noteRetry(0);
    EXPECT_FALSE(adm.retryAllowed(0)) << "third retry exceeds budget";
    EXPECT_EQ(adm.stats().retriesGranted, 2u);
}

TEST(Admission_, BackoffLaddersAreDeterministicAndCapped)
{
    auto cfg = tightAdmission();
    cfg.shedBackoffBase = us(4);
    cfg.shedBackoffCapShift = 3;
    cfg.retryPaceBase = us(2);
    sim::Kernel k;
    protocol::AdmissionController adm(cfg, k, 1);
    EXPECT_EQ(adm.shedBackoff(0), us(4));
    EXPECT_EQ(adm.shedBackoff(1), us(8));
    EXPECT_EQ(adm.shedBackoff(3), us(32));
    EXPECT_EQ(adm.shedBackoff(50), us(32)) << "ladder must cap";
    EXPECT_EQ(adm.retryPace(0), us(2));
    EXPECT_EQ(adm.retryPace(9), us(16)) << "pace caps at 8x base";
}

// ---- End-to-end specs -------------------------------------------------------

/** Five-node YCSB-A cluster under audit; the grey-failure scenarios
 *  decorate this. */
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
    spec.mix = {core::MixEntry{workload::AppKind::YcsbA,
                               kvs::StoreKind::HashTable}};
    spec.txnsPerContext = 6;
    spec.scaleKeys = 4'000;
    spec.audit = true;
    return spec;
}

std::uint64_t
expectedCommits(const core::RunSpec &spec)
{
    return std::uint64_t(spec.cluster.numNodes) *
           spec.cluster.coresPerNode * spec.cluster.slotsPerCore *
           spec.txnsPerContext;
}

void
addSlowNic(core::RunSpec &spec, NodeId node, std::uint32_t factor_pct,
           Tick at, Tick until)
{
    FaultConfig::GreyEvent g;
    g.kind = FaultConfig::GreyEvent::Kind::SlowNic;
    g.node = node;
    g.factorPct = factor_pct;
    g.at = at;
    g.until = until;
    spec.cluster.faults.enabled = true;
    spec.cluster.faults.greyEvents.push_back(g);
}

/** Sustained-slow node 1 with the SLO tracker + hedging armed and a
 *  replica to hedge to. */
core::RunSpec
greySloSpec(EngineKind engine, std::uint32_t factor_pct = 600)
{
    core::RunSpec spec = baseSpec(engine);
    addSlowNic(spec, NodeId(1), factor_pct, us(2), us(4000));
    spec.cluster.slo.enabled = true;
    spec.replication.degree = 2;
    return spec;
}

// ---- Fail-slow injection ----------------------------------------------------

TEST(GreyFault_, SlowNicPerturbsDeterministically)
{
    for (EngineKind e : kAllEngines) {
        core::RunSpec spec = baseSpec(e);
        addSlowNic(spec, NodeId(1), 400, us(2), us(2000));
        auto a = core::runOne(spec);
        auto b = core::runOne(spec);
        EXPECT_EQ(core::hashResult(a), core::hashResult(b))
            << engineTag(e) << ": grey runs must be bit-reproducible";
        EXPECT_GT(a.greyDelays, 0u)
            << engineTag(e) << ": the slow NIC never engaged";
        EXPECT_EQ(a.stats.committed, expectedCommits(spec))
            << engineTag(e);
        EXPECT_TRUE(a.audited);
    }
}

TEST(GreyFault_, SlowLinkOnlySlowsTheNamedEdge)
{
    core::RunSpec spec = baseSpec(EngineKind::Hades);
    FaultConfig::GreyEvent g;
    g.kind = FaultConfig::GreyEvent::Kind::SlowLink;
    g.node = NodeId(0);
    g.dst = NodeId(1);
    g.factorPct = 500;
    g.at = us(2);
    g.until = us(2000);
    spec.cluster.faults.enabled = true;
    spec.cluster.faults.greyEvents.push_back(g);
    auto r = core::runOne(spec);
    EXPECT_GT(r.greyDelays, 0u);
    EXPECT_EQ(r.stats.committed, expectedCommits(spec));

    // The directed edge slows strictly fewer copies than a symmetric
    // one over the same window.
    core::RunSpec sym = spec;
    sym.cluster.faults.greyEvents[0].symmetric = true;
    auto rs = core::runOne(sym);
    EXPECT_GT(rs.greyDelays, r.greyDelays);
}

TEST(GreyFault_, StraggleCoreStealsDutyCycles)
{
    core::RunSpec spec = baseSpec(EngineKind::Hades);
    FaultConfig::GreyEvent g;
    g.kind = FaultConfig::GreyEvent::Kind::StraggleCore;
    g.node = NodeId(2);
    g.factorPct = 300;
    g.at = us(5);
    g.until = us(60);
    spec.cluster.faults.enabled = true;
    spec.cluster.faults.greyEvents.push_back(g);
    auto a = core::runOne(spec);
    auto b = core::runOne(spec);
    EXPECT_EQ(core::hashResult(a), core::hashResult(b));
    EXPECT_GT(a.stragglerReserves, 0u);
    EXPECT_EQ(a.greyDelays, 0u)
        << "a straggler core must not slow the wire";
    EXPECT_EQ(a.stats.committed, expectedCommits(spec));
}

TEST(GreyFault_, BitIdenticalAcrossShardCounts)
{
    core::RunSpec spec = greySloSpec(EngineKind::Hades);
    spec.shards = 1;
    const auto oracle = core::hashResult(core::runOne(spec));
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        core::RunSpec s = spec;
        s.shards = shards;
        EXPECT_EQ(core::hashResult(core::runOne(s)), oracle)
            << shards << " shards diverged from the serial oracle";
    }
}

// ---- SLO + hedging ----------------------------------------------------------

TEST(Slo_, SustainedSlowNodeTripsTheTrackerAndHedges)
{
    for (EngineKind e : kAllEngines) {
        auto r = core::runOne(greySloSpec(e));
        EXPECT_GT(r.sloSamples, 0u) << engineTag(e);
        EXPECT_GT(r.sloSuspectTransitions + r.sloDegradedTransitions,
                  0u)
            << engineTag(e) << ": a 6x-slow node never left Healthy";
        EXPECT_GT(r.hedgedSends, 0u)
            << engineTag(e) << ": hedging never engaged";
        EXPECT_EQ(r.stats.committed,
                  expectedCommits(greySloSpec(e)))
            << engineTag(e);
        EXPECT_TRUE(r.audited) << engineTag(e);
    }
}

TEST(Slo_, HedgesWinAgainstASlowHome)
{
    auto r = core::runOne(greySloSpec(EngineKind::Hades));
    EXPECT_GT(r.hedgeWins, 0u)
        << "with a 6x-slow home every raced hedge should beat it";
    EXPECT_LE(r.hedgeWins, r.hedgedSends);
}

TEST(Slo_, NoHedgeKnobKeepsTheTrackerObservational)
{
    core::RunSpec spec = greySloSpec(EngineKind::Hades);
    spec.cluster.slo.hedgeReads = false;
    auto r = core::runOne(spec);
    EXPECT_GT(r.sloSamples, 0u);
    EXPECT_EQ(r.hedgedSends, 0u);
    EXPECT_EQ(r.hedgeWins, 0u);
    EXPECT_EQ(r.stats.committed, expectedCommits(spec));
}

TEST(Slo_, HedgingIsBitReproducible)
{
    const core::RunSpec spec = greySloSpec(EngineKind::HadesHybrid);
    auto a = core::runOne(spec);
    auto b = core::runOne(spec);
    EXPECT_EQ(core::hashResult(a), core::hashResult(b));
}

TEST(Slo_, DisabledSubsystemsStayInert)
{
    // Faults on, grey/SLO/admission off: every new counter is zero.
    core::RunSpec spec = baseSpec(EngineKind::Hades);
    spec.cluster.faults.enabled = true;
    spec.cluster.faults.dropAll(0.02);
    auto r = core::runOne(spec);
    EXPECT_EQ(r.greyDelays, 0u);
    EXPECT_EQ(r.stragglerReserves, 0u);
    EXPECT_EQ(r.sloSamples, 0u);
    EXPECT_EQ(r.hedgedSends, 0u);
    EXPECT_EQ(r.admittedTxns, 0u);
    EXPECT_EQ(r.shedTxns, 0u);
    EXPECT_EQ(r.quarantines, 0u);
}

// ---- Admission control end-to-end -------------------------------------------

TEST(Admission_, TightBucketShedsButNeverLosesWork)
{
    for (EngineKind e : kAllEngines) {
        core::RunSpec spec = baseSpec(e);
        spec.cluster.faults.enabled = true; // serial executor path
        spec.cluster.admission.enabled = true;
        spec.cluster.admission.bucketCap = 2;
        spec.cluster.admission.refillTokens = 1;
        spec.cluster.admission.refillInterval = us(4);
        spec.cluster.admission.maxInFlight = 3;
        auto a = core::runOne(spec);
        auto b = core::runOne(spec);
        EXPECT_EQ(core::hashResult(a), core::hashResult(b))
            << engineTag(e);
        EXPECT_GT(a.shedTxns, 0u)
            << engineTag(e) << ": the tight bucket never shed";
        EXPECT_EQ(a.stats.committed, expectedCommits(spec))
            << engineTag(e) << ": shedding must delay, never lose";
        EXPECT_EQ(a.admittedTxns, expectedCommits(spec))
            << engineTag(e) << ": every txn is admitted exactly once";
        EXPECT_GT(a.stats.squashes[std::size_t(
                      txn::SquashReason::Shed)],
                  0u)
            << engineTag(e);
    }
}

TEST(Admission_, ExhaustedRetryBudgetPacesInsteadOfFailing)
{
    // Zero retry budget: every squash retry must wait through the
    // pacing ladder (retryBudgetDeferrals) yet still proceed.
    core::RunSpec spec = baseSpec(EngineKind::Baseline);
    spec.cluster.faults.enabled = true;
    spec.cluster.admission.enabled = true;
    spec.cluster.admission.retryBudgetPct = 0;
    spec.cluster.admission.maxRetryDeferrals = 2;
    spec.scaleKeys = 60; // contended: plenty of squash retries
    auto r = core::runOne(spec);
    EXPECT_GT(r.retryBudgetDeferrals, 0u)
        << "no squash ever hit the exhausted budget";
    EXPECT_EQ(r.stats.committed, expectedCommits(spec))
        << "pacing must never strand a transaction";
}

// ---- Retry-timeout ladder determinism ---------------------------------------

TEST(Retry_, TimeoutLadderIsDeterministicAcrossRunsAndShards)
{
    // Heavy drops so the commit-phase RTO ladder (base..cap doubling)
    // actually drives resends; the ladder must replay bit-identically
    // and shard-count-invariantly.
    core::RunSpec spec = baseSpec(EngineKind::Hades);
    spec.cluster.faults.enabled = true;
    spec.cluster.faults.dropAll(0.15);
    spec.cluster.faults.seed = 7;
    auto a = core::runOne(spec);
    auto b = core::runOne(spec);
    ASSERT_GT(a.stats.timeoutResends, 0u)
        << "the drop rate never exercised the RTO ladder";
    EXPECT_EQ(core::hashResult(a), core::hashResult(b));
    for (std::uint32_t shards : {2u, 4u}) {
        core::RunSpec s = spec;
        s.shards = shards;
        EXPECT_EQ(core::hashResult(core::runOne(s)),
                  core::hashResult(a))
            << shards << " shards diverged on the RTO ladder";
    }
}

// ---- Quarantine composition -------------------------------------------------

/** Quarantine scenario: node 1 is sustained-slow; the CM must drain it
 *  live through the membership path. */
core::RunSpec
quarantineSpec(EngineKind engine)
{
    // 10x, not 6x: every observation of the victim must classify
    // Degraded outright (6x EWMAs flap around the 500% line as hedge
    // wins mix in fast samples), so the consecutive-degraded streak
    // survives to the sustained threshold and the CM acts.
    core::RunSpec spec = greySloSpec(engine, 1000);
    spec.cluster.slo.quarantine = true;
    // Each (observer, victim) pair only collects a few dozen samples
    // in a short run, so the default 8-warmup + 12-streak thresholds
    // starve; shrink both so the CM can act inside the grey window.
    spec.cluster.slo.warmupSamples = 4;
    spec.cluster.slo.sustainedSamples = 4;
    spec.cluster.recovery.enabled = true;
    spec.txnsPerContext = 8;
    return spec;
}

TEST(Quarantine_, SustainedDegradedNodeIsDrainedLive)
{
    auto spec = quarantineSpec(EngineKind::Hades);
    auto a = core::runOne(spec);
    auto b = core::runOne(spec);
    EXPECT_EQ(core::hashResult(a), core::hashResult(b));
    EXPECT_EQ(a.quarantines, 1u)
        << "the sustained-degraded node was never quarantined";
    EXPECT_GT(a.recordsMigrated, 0u)
        << "quarantine must migrate the victim's records live";
    EXPECT_EQ(a.divergentRecords, 0u);
    // The victim's unissued contexts stop when it leaves the ring
    // (same contract as a planned drain, test_membership.cc), so the
    // cluster lands strictly between half and full quota.
    EXPECT_GT(a.stats.committed, expectedCommits(spec) / 2);
    EXPECT_LT(a.stats.committed, expectedCommits(spec));
    EXPECT_TRUE(a.audited);
}

TEST(Quarantine_, ComposesWithCrashRecovery)
{
    // The full chaos composition: grey fault -> quarantine drain ->
    // the victim then dies for real -> recovery's view change cleans
    // up whatever the drain had not moved yet. The run must converge
    // with zero divergent records under audit, for every engine.
    for (EngineKind e : kAllEngines) {
        auto spec = quarantineSpec(e);
        FaultConfig::NodeEvent ev;
        ev.node = NodeId(1);
        ev.at = us(120);
        ev.crash = true;
        ev.forever = true;
        spec.cluster.faults.nodeEvents.push_back(ev);
        auto a = core::runOne(spec);
        auto b = core::runOne(spec);
        EXPECT_EQ(core::hashResult(a), core::hashResult(b))
            << engineTag(e);
        EXPECT_EQ(a.divergentRecords, 0u)
            << engineTag(e)
            << ": quarantine + crash recovery left divergence";
        EXPECT_GT(a.stats.committed, 0u) << engineTag(e);
        EXPECT_TRUE(a.audited) << engineTag(e);
    }
}

TEST(Quarantine_, HealthyClusterNeverQuarantines)
{
    core::RunSpec spec = baseSpec(EngineKind::Hades);
    spec.cluster.faults.enabled = true;
    spec.cluster.slo.enabled = true;
    spec.cluster.slo.quarantine = true;
    spec.cluster.recovery.enabled = true;
    spec.replication.degree = 2;
    auto r = core::runOne(spec);
    EXPECT_EQ(r.quarantines, 0u)
        << "no grey fault, no quarantine: the trigger must be quiet";
    EXPECT_EQ(r.divergentRecords, 0u);
    EXPECT_EQ(r.stats.committed, expectedCommits(spec));
}

} // namespace
} // namespace hades
