/**
 * @file
 * Tests for the chaos fuzzer (src/fuzz/): genome generation and decode
 * clamps, the `hades-fuzz-repro-v1` JSON round trip, the clean-matrix
 * property on small seeds, and the shrinking demo against the seeded
 * skip-resync defect (a failing genome must shrink to a handful of
 * events whose replay reproduces the same failure).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fuzz/campaign.hh"
#include "fuzz/genome.hh"

namespace hades::fuzz
{
namespace
{

TEST(Genome_, GenerationIsAPureFunctionOfTheSeed)
{
    auto a = randomGenome(7);
    auto b = randomGenome(7);
    EXPECT_TRUE(a == b) << "same seed must yield the same genome";
    EXPECT_FALSE(a.events.empty());
    auto c = randomGenome(8);
    EXPECT_FALSE(a == c) << "different seeds should differ";
}

TEST(Genome_, GenerationHonorsTheEventBound)
{
    GenomeLimits lim;
    lim.maxEvents = 3;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto g = randomGenome(seed, lim);
        EXPECT_GE(g.events.size(), 1u);
        EXPECT_LE(g.events.size(), 3u);
    }
}

TEST(Genome_, EventKindNamesRoundTrip)
{
    for (std::uint32_t k = 0;
         k < std::uint32_t(EventKind::NumKinds); ++k) {
        auto kind = EventKind(k);
        EventKind back = EventKind::NumKinds;
        ASSERT_TRUE(eventKindFromName(eventKindName(kind), back))
            << eventKindName(kind);
        EXPECT_EQ(back, kind);
    }
    EventKind out;
    EXPECT_FALSE(eventKindFromName("not_a_kind", out));
}

TEST(Genome_, JsonRoundTripsBitIdentically)
{
    for (std::uint64_t seed : {1ull, 5ull, 23ull, 0xdeadull}) {
        auto g = randomGenome(seed);
        g.bugHook = (seed & 1) != 0;
        Genome back;
        std::string err;
        ASSERT_TRUE(parseGenomeJson(genomeJson(g), back, err)) << err;
        EXPECT_TRUE(g == back) << "round trip lost data for seed "
                               << seed;
    }
}

TEST(Genome_, ReproArtifactsRecordTheShardCount)
{
    auto g = randomGenome(7);
    g.shards = 4;
    const auto json = genomeJson(g);
    EXPECT_NE(json.find("\"shards\":4"), std::string::npos)
        << "repro artifact dropped the executor dimension: " << json;
    Genome back;
    std::string err;
    ASSERT_TRUE(parseGenomeJson(json, back, err)) << err;
    EXPECT_EQ(back.shards, 4u);

    // Legacy artifacts (written before the shard gene existed) carry
    // no "shards" key and must replay on the serial oracle.
    Genome legacy;
    ASSERT_TRUE(parseGenomeJson(
        R"({"schema":"hades-fuzz-repro-v1","seed":3,"nodes":5,)"
        R"("txns_per_context":4,"bug_hook":false,"events":[]})",
        legacy, err))
        << err;
    EXPECT_EQ(legacy.shards, 1u);
}

TEST(Genome_, ReproArtifactsRecordTheThreadedMessagingGene)
{
    auto g = randomGenome(7);
    g.threadedMessaging = true;
    const auto json = genomeJson(g);
    EXPECT_NE(json.find("\"threaded_messaging\":true"),
              std::string::npos)
        << "repro artifact dropped the threaded-messaging gene: "
        << json;
    Genome back;
    std::string err;
    ASSERT_TRUE(parseGenomeJson(json, back, err)) << err;
    EXPECT_TRUE(back.threadedMessaging);

    // Legacy artifacts (written before the gene existed) carry no
    // "threaded_messaging" key and must replay without the threaded
    // differential.
    Genome legacy;
    ASSERT_TRUE(parseGenomeJson(
        R"({"schema":"hades-fuzz-repro-v1","seed":3,"nodes":5,)"
        R"("txns_per_context":4,"bug_hook":false,"events":[]})",
        legacy, err))
        << err;
    EXPECT_FALSE(legacy.threadedMessaging);
}

TEST(Genome_, JsonNoteAnnotationIsIgnoredByTheParser)
{
    auto g = randomGenome(3);
    Genome back;
    std::string err;
    ASSERT_TRUE(parseGenomeJson(
        genomeJson(g, "divergent_records=1 on HADES"), back, err))
        << err;
    EXPECT_TRUE(g == back);
}

TEST(Genome_, ParserRejectsGarbageAndWrongSchema)
{
    Genome out;
    std::string err;
    EXPECT_FALSE(parseGenomeJson("not json at all", out, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseGenomeJson(
        R"({"schema":"something-else-v9","seed":1})", out, err));
    EXPECT_FALSE(parseGenomeJson(R"({"seed":)", out, err));
}

TEST(Genome_, DecodeClampsKeepEverySubsetSafe)
{
    // Hostile genome: saturated probabilities, a never-healing
    // partition, four distinct permanent-crash victims. Decode must
    // clamp all of it -- the property that makes ddmin subsets valid.
    Genome g;
    g.nodes = 6;
    FuzzEvent drop;
    drop.kind = EventKind::DropVerb;
    drop.verb = 1;
    drop.prob = 0.999;
    g.events.push_back(drop);
    FuzzEvent part;
    part.kind = EventKind::Partition;
    part.a = 0;
    part.b = 0; // a == b decodes as full isolation
    part.at = us(10);
    part.until = kTickMax; // must be clamped to a healing window
    g.events.push_back(part);
    for (std::uint32_t victim = 0; victim < 4; ++victim) {
        FuzzEvent crash;
        crash.kind = EventKind::CrashForever;
        crash.a = victim;
        crash.at = us(20) + us(victim);
        g.events.push_back(crash);
    }

    ClusterConfig cc;
    cc.numNodes = g.nodes;
    applyEvents(g, cc);
    EXPECT_TRUE(cc.faults.enabled);
    EXPECT_TRUE(cc.recovery.enabled);
    EXPECT_LE(cc.faults.dropProb[1], 0.35);
    ASSERT_EQ(cc.faults.partitions.size(), 1u);
    EXPECT_LT(cc.faults.partitions[0].until, kTickMax)
        << "fuzzer partitions must always heal";
    std::uint32_t forever = 0;
    for (const auto &ev : cc.faults.nodeEvents)
        forever += ev.forever ? 1 : 0;
    EXPECT_LE(forever, 2u)
        << "at most two distinct permanent-crash victims may decode";
}

TEST(Genome_, MembershipGenesDecodeCanonically)
{
    // Any number of JoinNode / DrainNode genes, in any order, collapse
    // to at most one join (of the held-out last node, at the earliest
    // clamped instant) and one drain (of node 1) -- the property that
    // keeps the decode order-independent and every ddmin subset valid.
    Genome g;
    g.nodes = 6;
    FuzzEvent late;
    late.kind = EventKind::JoinNode;
    late.at = us(90);
    g.events.push_back(late);
    FuzzEvent early;
    early.kind = EventKind::JoinNode;
    early.at = us(30);
    g.events.push_back(early);
    FuzzEvent drain;
    drain.kind = EventKind::DrainNode;
    drain.a = 4; // victim field is ignored: the drain target is fixed
    drain.at = us(50);
    g.events.push_back(drain);

    ClusterConfig cc;
    cc.numNodes = g.nodes;
    applyEvents(g, cc);
    EXPECT_TRUE(cc.membership.enabled());
    EXPECT_EQ(cc.membership.initialMembers, g.nodes - 1);
    ASSERT_EQ(cc.membership.joins.size(), 1u);
    EXPECT_EQ(cc.membership.joins[0].node, NodeId(g.nodes - 1));
    EXPECT_EQ(cc.membership.joins[0].at, us(30));
    ASSERT_EQ(cc.membership.drains.size(), 1u);
    EXPECT_EQ(cc.membership.drains[0].node, NodeId(1));
    EXPECT_EQ(cc.membership.drains[0].at, us(50));

    // Below the fuzzer's node floor the genes are inert: no decode can
    // schedule an out-of-range node or drain the cluster empty.
    ClusterConfig tiny;
    tiny.numNodes = 3;
    Genome small = g;
    small.nodes = 3;
    applyEvents(small, tiny);
    EXPECT_FALSE(tiny.membership.enabled());
}

TEST(Genome_, GreyGenesDecodeBoundedAndArmTheSlo)
{
    // Hostile grey genome: a saturated factor, a never-ending window,
    // and a degenerate self-link. Decode must clamp the factor and the
    // window, fold the self-link into a NIC slowdown, and arm the SLO
    // tracker (the mitigation under test).
    Genome g;
    g.nodes = 6;
    FuzzEvent nic;
    nic.kind = EventKind::SlowNic;
    nic.a = 2;
    nic.count = 1000; // factor steps, must clamp to x5
    nic.at = us(10);
    nic.until = kTickMax; // must clamp to a bounded window
    g.events.push_back(nic);
    FuzzEvent self;
    self.kind = EventKind::SlowLink;
    self.a = 3;
    self.b = 3; // a == b decodes as a NIC slowdown, never inert
    self.at = us(5);
    self.until = us(20);
    g.events.push_back(self);
    FuzzEvent link;
    link.kind = EventKind::SlowLink;
    link.a = 0;
    link.b = 4;
    link.symmetric = true;
    link.count = 2;
    link.at = us(8);
    link.until = us(30);
    g.events.push_back(link);

    ClusterConfig cc;
    cc.numNodes = g.nodes;
    applyEvents(g, cc);
    EXPECT_TRUE(cc.slo.enabled)
        << "grey genes must arm the SLO tracker";
    ASSERT_EQ(cc.faults.greyEvents.size(), 3u);
    for (const auto &ge : cc.faults.greyEvents) {
        EXPECT_LE(ge.factorPct, 500u);
        EXPECT_GT(ge.factorPct, 100u);
        EXPECT_LT(ge.until, kTickMax)
            << "fuzzer grey windows must always end";
    }
    EXPECT_EQ(cc.faults.greyEvents[0].kind,
              FaultConfig::GreyEvent::Kind::SlowNic);
    EXPECT_EQ(cc.faults.greyEvents[1].kind,
              FaultConfig::GreyEvent::Kind::SlowNic)
        << "a self-link must decode as a NIC slowdown";
    EXPECT_EQ(cc.faults.greyEvents[2].kind,
              FaultConfig::GreyEvent::Kind::SlowLink);
    EXPECT_TRUE(cc.faults.greyEvents[2].symmetric);
}

TEST(Genome_, ShedStormDecodesIdempotently)
{
    // Any number of ShedStorm genes decode to the same admission
    // config, so every ddmin subset that keeps at least one gene is
    // the same scenario.
    Genome one;
    one.nodes = 5;
    FuzzEvent shed;
    shed.kind = EventKind::ShedStorm;
    one.events.push_back(shed);
    Genome three = one;
    three.events.push_back(shed);
    three.events.push_back(shed);

    ClusterConfig a, b;
    a.numNodes = b.numNodes = 5;
    applyEvents(one, a);
    applyEvents(three, b);
    EXPECT_TRUE(a.admission.enabled);
    EXPECT_EQ(a.admission.bucketCap, b.admission.bucketCap);
    EXPECT_EQ(a.admission.refillTokens, b.admission.refillTokens);
    EXPECT_EQ(a.admission.maxInFlight, b.admission.maxInFlight);
    EXPECT_EQ(a.admission.retryBudgetPct, b.admission.retryBudgetPct);
    EXPECT_FALSE(a.slo.enabled)
        << "overload genes alone must not arm the SLO tracker";
}

TEST(Campaign, GreyAndShedGenesRunTheAuditedMatrixClean)
{
    // Arm a grey fault and a shed storm on top of random fault
    // genomes: hedged reads, admission shedding and retry budgets
    // under drops/dups/partitions must still audit clean with zero
    // divergent records.
    FuzzRunOptions opt;
    opt.smoke = true;
    opt.jobs = 4;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        auto g = randomGenome(seed);
        FuzzEvent nic;
        nic.kind = EventKind::SlowNic;
        nic.a = std::uint32_t(seed % g.nodes);
        nic.count = 3;
        nic.at = us(10);
        nic.until = us(60);
        g.events.push_back(nic);
        FuzzEvent shed;
        shed.kind = EventKind::ShedStorm;
        g.events.push_back(shed);
        auto v = runGenome(g, opt);
        EXPECT_FALSE(v.failed)
            << "seed " << seed << " failed on " << v.engine << ": "
            << v.error;
    }
}

TEST(Campaign, SmallSeedMatrixRunsClean)
{
    FuzzRunOptions opt;
    opt.smoke = true;
    opt.jobs = 4;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto v = runGenome(randomGenome(seed), opt);
        EXPECT_FALSE(v.failed)
            << "seed " << seed << " failed on " << v.engine << ": "
            << v.error;
    }
}

TEST(Campaign, MembershipGenesRunTheAuditedMatrixClean)
{
    // Arm a join and a drain on top of random fault genomes: live
    // migration under drops, duplicates, partitions and crashes must
    // still leave zero divergent records on a healthy tree (aborted
    // joins/drains are legitimate outcomes, divergence never is).
    FuzzRunOptions opt;
    opt.smoke = true;
    opt.jobs = 4;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        auto g = randomGenome(seed);
        FuzzEvent join;
        join.kind = EventKind::JoinNode;
        join.at = us(25);
        g.events.push_back(join);
        FuzzEvent drain;
        drain.kind = EventKind::DrainNode;
        drain.at = us(40);
        g.events.push_back(drain);
        auto v = runGenome(g, opt);
        EXPECT_FALSE(v.failed)
            << "seed " << seed << " failed on " << v.engine << ": "
            << v.error;
    }
}

TEST(Campaign, ThreadedMessagingGeneRunsTheDifferentialClean)
{
    // Arm the gene on a few seeds: the fault-free uniform-messaging
    // replay on worker threads must match the serial oracle, so a
    // healthy tree runs these genomes clean. (A threaded-executor
    // regression turns exactly this verdict into the repro artifact.)
    FuzzRunOptions opt;
    opt.smoke = true;
    opt.jobs = 4;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto g = randomGenome(seed);
        g.threadedMessaging = true;
        const auto spec = threadedSpecFor(
            g, protocol::EngineKind::Hades, true);
        EXPECT_GE(spec.shards, 2u);
        EXPECT_FALSE(spec.audit);
        EXPECT_FALSE(spec.cluster.faults.enabled)
            << "the gene's family must stay thread-certifiable";
        auto v = runGenome(g, opt);
        EXPECT_FALSE(v.failed)
            << "seed " << seed << " threaded differential failed on "
            << v.engine << ": " << v.error;
    }
}

TEST(Campaign, ShrinkerCollapsesTheThreadedMessagingGeneFirst)
{
    // A genome whose failure lives in the audited fault family (the
    // seeded skip-resync defect) but that also carries the threaded-
    // messaging gene: the shrinker must collapse the gene before
    // ddmin, leaving a repro that replays with no threads involved.
    FuzzRunOptions opt;
    opt.smoke = true;
    opt.jobs = 4;
    Genome failing;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 4 && !found; ++seed) {
        Genome g = randomGenome(seed);
        g.bugHook = true;
        g.threadedMessaging = true;
        FuzzEvent crash;
        crash.kind = EventKind::CrashForever;
        crash.a = std::uint32_t(g.seed % g.nodes);
        crash.at = us(20);
        g.events.push_back(crash);
        if (runGenome(g, opt).failed) {
            failing = g;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "the armed defect was never detected";
    std::uint32_t runs_used = 0;
    Genome shrunk = shrinkGenome(failing, opt, 64, runs_used);
    EXPECT_FALSE(shrunk.threadedMessaging)
        << "the gene was irrelevant to the failure and must collapse";
    EXPECT_TRUE(runGenome(shrunk, opt).failed)
        << "shrunken repro no longer reproduces";
}

/** Seed 39 (hades-fuzz-repro-v1). A join moved a record while a
 *  finished HADES commit's Validation to the old home was still being
 *  resent; an attempt at the new home read the pre-write value, and
 *  the late write then overwrote it: a dependency cycle. */
constexpr const char *kValidationInFlightAtMigration =
    "{\"schema\":\"hades-fuzz-repro-v1\",\"seed\":39,\"nodes\":5,"
    "\"txns_per_context\":5,\"shards\":1,\"bug_hook\":false,"
    "\"threaded_messaging\":false,\"events\":[{\"kind\":\"nic_stall\","
    "\"verb\":2,\"prob\":0.33430556618528523,\"a\":4,\"b\":1,"
    "\"at_ps\":13000000,\"until_ps\":40000000,\"symmetric\":false,"
    "\"count\":4},{\"kind\":\"slow_nic\",\"verb\":9,"
    "\"prob\":0.27451954217374147,\"a\":4,\"b\":3,\"at_ps\":13000000,"
    "\"until_ps\":36000000,\"symmetric\":false,\"count\":2},"
    "{\"kind\":\"slow_nic\",\"verb\":4,\"prob\":0.1667685162615426,\"a\":2,"
    "\"b\":2,\"at_ps\":33000000,\"until_ps\":49000000,\"symmetric\":true,"
    "\"count\":4},{\"kind\":\"pause_node\",\"verb\":8,"
    "\"prob\":0.0427302774543792,\"a\":3,\"b\":3,\"at_ps\":45000000,"
    "\"until_ps\":49000000,\"symmetric\":true,\"count\":4},"
    "{\"kind\":\"partition\",\"verb\":8,\"prob\":0.05219862645602544,"
    "\"a\":3,\"b\":2,\"at_ps\":31000000,\"until_ps\":61000000,"
    "\"symmetric\":true,\"count\":3},{\"kind\":\"corrupt_verb\",\"verb\":3,"
    "\"prob\":0.008126449504187672,\"a\":2,\"b\":4,\"at_ps\":45000000,"
    "\"until_ps\":49000000,\"symmetric\":true,\"count\":1},"
    "{\"kind\":\"join_node\",\"verb\":5,\"prob\":0.33128693566480877,"
    "\"a\":0,\"b\":3,\"at_ps\":70000000,\"until_ps\":90000000,"
    "\"symmetric\":true,\"count\":3},{\"kind\":\"slow_nic\",\"verb\":0,"
    "\"prob\":0.16859122890649192,\"a\":1,\"b\":3,\"at_ps\":35000000,"
    "\"until_ps\":60000000,\"symmetric\":false,\"count\":4},"
    "{\"kind\":\"slow_nic\",\"verb\":5,\"prob\":0.1249238820149368,\"a\":1,"
    "\"b\":3,\"at_ps\":52000000,\"until_ps\":57000000,\"symmetric\":true,"
    "\"count\":4},{\"kind\":\"drop_verb\",\"verb\":5,"
    "\"prob\":0.18823121322270608,\"a\":4,\"b\":2,\"at_ps\":43000000,"
    "\"until_ps\":68000000,\"symmetric\":true,\"count\":1},"
    "{\"kind\":\"delay_verb\",\"verb\":9,\"prob\":0.17435059170285153,"
    "\"a\":3,\"b\":3,\"at_ps\":78000000,\"until_ps\":86000000,"
    "\"symmetric\":true,\"count\":4},{\"kind\":\"shed_storm\",\"verb\":9,"
    "\"prob\":0.15315572689243032,\"a\":1,\"b\":1,\"at_ps\":7000000,"
    "\"until_ps\":32000000,\"symmetric\":true,\"count\":4}]}";

/** Seed 139, shrunk. A coordinator crashed after its attempt finished
 *  but before its Validation landed; the view change replayed only the
 *  journals of unfinished attempts, so the decided write was never
 *  applied (the end-of-run audit finds its journal entry left over). */
constexpr const char *kJournalOfFinishedDeadCoordinator =
    "{\"schema\":\"hades-fuzz-repro-v1\",\"seed\":139,\"nodes\":5,"
    "\"txns_per_context\":3,\"shards\":1,\"bug_hook\":false,"
    "\"threaded_messaging\":false,\"events\":[{\"kind\":\"crash_forever\","
    "\"verb\":2,\"prob\":0.3082816624014213,\"a\":3,\"b\":4,"
    "\"at_ps\":22000000,\"until_ps\":24000000,\"symmetric\":true,"
    "\"count\":2},{\"kind\":\"drain_node\",\"verb\":7,"
    "\"prob\":0.10001780138477957,\"a\":2,\"b\":1,\"at_ps\":18000000,"
    "\"until_ps\":55000000,\"symmetric\":false,\"count\":4},"
    "{\"kind\":\"join_node\",\"verb\":0,\"prob\":0.05971121209017926,"
    "\"a\":1,\"b\":3,\"at_ps\":73000000,\"until_ps\":93000000,"
    "\"symmetric\":true,\"count\":2}]}";

/** Replay a repro artifact at full size (not smoke). */
FuzzVerdict
replayFull(const char *json)
{
    Genome g;
    std::string err;
    EXPECT_TRUE(parseGenomeJson(json, g, err)) << err;
    FuzzRunOptions opt;
    opt.jobs = 2;
    return runGenome(g, opt);
}

TEST(Campaign, MigrationWaitsForAnInFlightValidation)
{
    auto v = replayFull(kValidationInFlightAtMigration);
    EXPECT_FALSE(v.failed) << v.engine << ": " << v.error;
}

TEST(Campaign, ViewChangeAppliesAFinishedDeadCoordinatorsWrites)
{
    auto v = replayFull(kJournalOfFinishedDeadCoordinator);
    EXPECT_FALSE(v.failed) << v.engine << ": " << v.error;
}

TEST(Campaign, VerdictIsReproducible)
{
    FuzzRunOptions opt;
    opt.smoke = true;
    opt.jobs = 2;
    auto g = randomGenome(2);
    auto a = runGenome(g, opt);
    auto b = runGenome(g, opt);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.error, b.error);
}

TEST(Campaign, SeededDefectIsFoundShrunkAndReplayable)
{
    // The acceptance demo end-to-end: arm the TEST-ONLY skip-resync
    // defect, find the failure, ddmin it to <= 8 events, and replay
    // the shrunken repro to the same verdict -- all in-process (the
    // hades_fuzz CLI is a thin wrapper over these calls).
    CampaignOptions opt;
    opt.seedBase = 1;
    opt.genomes = 4;
    opt.smoke = true;
    opt.jobs = 4;
    opt.bugHook = true;
    opt.quiet = true;
    auto report = runCampaign(opt);
    ASSERT_EQ(report.failures, 1u)
        << "the armed defect was never detected";
    ASSERT_TRUE(report.haveRepro);
    EXPECT_LE(report.repro.events.size(), 8u)
        << "shrinking left too many events in the repro";
    EXPECT_TRUE(report.repro.bugHook);

    // Replay through the JSON artifact, exactly as `--replay` does.
    Genome replay;
    std::string err;
    ASSERT_TRUE(parseGenomeJson(genomeJson(report.repro), replay, err))
        << err;
    FuzzRunOptions run;
    run.smoke = true;
    run.jobs = 4;
    auto v = runGenome(replay, run);
    EXPECT_TRUE(v.failed) << "shrunken repro no longer reproduces";
    EXPECT_EQ(v.engine, report.verdict.engine);
    EXPECT_EQ(v.error, report.verdict.error);
}

} // namespace
} // namespace hades::fuzz
