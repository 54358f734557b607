/**
 * @file
 * Unit tests of the benchmark's own metric code, on hand-made inputs.
 */

#include <gtest/gtest.h>

#include "metrics.hh"
#include "spec.hh"

namespace
{

using namespace hades;
using namespace hades::perfbench;
using protocol::EngineKind;

EngineRun
makeRun(EngineKind engine, std::uint64_t committed, Tick sim_time)
{
    EngineRun run;
    run.engine = engine;
    run.result.stats.committed = committed;
    run.result.stats.attempts = committed;
    run.result.simTime = sim_time;
    return run;
}

TEST(Quantiles, ComeFromAHandFilledHistogram)
{
    // 1..100 us, one sample each: p50 is 50.5 us, p99 is 99.5 us, up
    // to the ~4% bucket width of the log-linear histogram.
    stats::Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(std::uint64_t(i) * kMicrosecond);
    const LatencyQuantiles q = latencyQuantiles(h);
    EXPECT_EQ(q.samples, 100u);
    EXPECT_NEAR(q.p50Us, 50.5, 0.04 * 50.5);
    EXPECT_NEAR(q.p99Us, 99.5, 0.04 * 99.5);
    EXPECT_LT(q.p50Us, q.p99Us);
}

TEST(Quantiles, StayInsideTheBucketTheHistogramNames)
{
    stats::Histogram h;
    for (int i = 0; i < 5; ++i)
        h.add(100); // bucket [100, 104)
    h.add(5000);
    for (double q : {0.1, 0.5, 0.8}) {
        const double v = interpolatedQuantile(h, q);
        EXPECT_GE(v, 100.0);
        EXPECT_LT(v, 104.0);
    }
    EXPECT_LT(interpolatedQuantile(h, 0.1), interpolatedQuantile(h, 0.8));
    EXPECT_GE(interpolatedQuantile(h, 0.99), double(h.quantile(0.99)));
}

TEST(Quantiles, EmptyHistogramIsZero)
{
    const LatencyQuantiles q = latencyQuantiles(stats::Histogram{});
    EXPECT_EQ(q.samples, 0u);
    EXPECT_EQ(q.p50Us, 0.0);
    EXPECT_EQ(q.p99Us, 0.0);
}

TEST(Speedup, IsPooledThroughputOverTheBaselines)
{
    // Two inputs per engine: pooled throughput is all commits over all
    // simulated time, not a mean of per-input rates.
    std::vector<EngineRun> runs = {
        makeRun(EngineKind::Baseline, 100, kMillisecond),
        makeRun(EngineKind::Baseline, 300, kMillisecond),
        makeRun(EngineKind::Hades, 100, kMillisecond / 4),
        makeRun(EngineKind::Hades, 300, 3 * kMillisecond / 4),
    };
    EXPECT_DOUBLE_EQ(simTps(runs, EngineKind::Baseline), 200'000.0);
    EXPECT_DOUBLE_EQ(simTps(runs, EngineKind::Hades), 400'000.0);
    EXPECT_DOUBLE_EQ(simTps(runs, EngineKind::HadesHybrid), 0.0);
    EXPECT_DOUBLE_EQ(speedup(400'000.0, 200'000.0), 2.0);
    EXPECT_DOUBLE_EQ(speedup(400'000.0, 0.0), 0.0);
}

TEST(AbortRate, CountsShedsAsRefusedAttempts)
{
    EngineRun run = makeRun(EngineKind::Hades, 10, kMillisecond);
    run.result.stats.attempts = 12;
    run.result.stats.addSquash(txn::SquashReason::LazyConflict);
    run.result.stats.addSquash(txn::SquashReason::LazyConflict);
    for (int i = 0; i < 3; ++i)
        run.result.stats.addSquash(txn::SquashReason::Shed);
    const AbortCount c = abortCount(run);
    EXPECT_EQ(c.attempts, 15u); // 12 attempts opened + 3 refused
    EXPECT_EQ(c.failed, 5u);    // 2 squashes + 3 sheds
    EXPECT_DOUBLE_EQ(abortRate({run}), 5.0 / 15.0);
}

TEST(AbortRate, AFailedCheckFailsEveryAttemptOfItsRun)
{
    EngineRun bad = makeRun(EngineKind::Baseline, 10, kMillisecond);
    bad.correct = false;
    const EngineRun good = makeRun(EngineKind::Hades, 30, kMillisecond);
    EXPECT_EQ(abortCount(bad).failed, 10u);
    EXPECT_DOUBLE_EQ(abortRate({bad, good}), 10.0 / 40.0);
    EXPECT_DOUBLE_EQ(abortRate({}), 0.0);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(ResultJson, HasTheFourKeysAndFullPrecision)
{
    const std::string json =
        resultJson(true, 7, 0, {{"latency_ms", 1.0 / 3.0, "ms"}});
    EXPECT_EQ(json,
              "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": "
              "0.33333333333333331, \"unit\": \"ms\"}}}");
}

TEST(CheckRun, FailsOnAMissingCommitOrADivergentBackup)
{
    for (const auto &w : workloadNames()) {
        const auto spec = makeSpec(w, EngineKind::Hades, 1);
        core::RunResult res;
        res.stats.committed = expectedCommits(spec);
        res.audited = spec.audit;
        res.auditedCommits = res.stats.committed;
        EXPECT_EQ(checkRun(spec, res), "") << w;
        EXPECT_NE(checkRun(spec, res, 1), "") << w;
        res.divergentRecords = 1;
        EXPECT_NE(checkRun(spec, res), "") << w;
    }
}

TEST(Spec, SeedOnlyChangesTheClusterSeed)
{
    const auto a = makeSpec("ycsb-a-grey", EngineKind::Hades, 1);
    const auto b = makeSpec("ycsb-a-grey", EngineKind::Hades, 2);
    EXPECT_NE(a.cluster.seed, b.cluster.seed);
    EXPECT_EQ(a.txnsPerContext, b.txnsPerContext);
    EXPECT_EQ(a.cluster.numNodes, b.cluster.numNodes);
    EXPECT_EQ(inputSeed(1, kInputsPerRun - 1) + 1, inputSeed(2, 0))
        << "run seeds must cover disjoint inputs";
}

} // namespace
