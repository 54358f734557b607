/**
 * @file
 * Unit tests for the common substrate: types, time, RNG, Zipf, hashing,
 * and statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/config.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/time.hh"
#include "common/types.hh"

namespace hades
{
namespace
{

TEST(Types, GlobalTxIdPackIsUniqueAcrossContexts)
{
    std::map<std::uint64_t, GlobalTxId> seen;
    for (NodeId n = 0; n < 8; ++n) {
        for (CoreId c = 0; c < 25; ++c) {
            for (SlotId s = 0; s < 2; ++s) {
                GlobalTxId id{n, c, s};
                auto [it, inserted] = seen.emplace(id.pack(), id);
                EXPECT_TRUE(inserted)
                    << "pack collision between contexts";
                (void)it;
            }
        }
    }
}

TEST(Types, AddrRangeLineArithmetic)
{
    // A 1-byte access within one line.
    AddrRange r1{100, 1};
    EXPECT_EQ(r1.firstLine(), 64u);
    EXPECT_EQ(r1.lastLine(), 64u);
    EXPECT_EQ(r1.numLines(), 1u);

    // Exactly one aligned line.
    AddrRange r2{128, 64};
    EXPECT_EQ(r2.firstLine(), 128u);
    EXPECT_EQ(r2.lastLine(), 128u);
    EXPECT_EQ(r2.numLines(), 1u);

    // Unaligned spanning two lines.
    AddrRange r3{120, 16};
    EXPECT_EQ(r3.firstLine(), 64u);
    EXPECT_EQ(r3.lastLine(), 128u);
    EXPECT_EQ(r3.numLines(), 2u);

    // A 256-byte record aligned at 0 spans 4 lines.
    AddrRange r4{0, 256};
    EXPECT_EQ(r4.numLines(), 4u);

    // Empty range.
    AddrRange r5{64, 0};
    EXPECT_EQ(r5.numLines(), 0u);
}

TEST(Time, ClockConversions)
{
    Clock clk{2.0}; // 2 GHz
    EXPECT_EQ(clk.period(), 500);
    EXPECT_EQ(clk.cycles(40), 20'000);      // 40 cycles = 20 ns
    EXPECT_EQ(clk.toCycles(us(2)), 4000);   // 2 us = 4000 cycles
    EXPECT_EQ(ns(100), 100'000);
    EXPECT_EQ(us(2), 2'000'000);
}

TEST(Rng, DeterministicForFixedSeed)
{
    Rng a{123}, b{123};
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng{7};
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.below(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng rng{99};
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 100000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Zipf, HeadIsHotterThanTail)
{
    Rng rng{1};
    ZipfGenerator zipf{4'000'000, 0.99};
    std::uint64_t head = 0, tail = 0;
    constexpr int kSamples = 200000;
    for (int i = 0; i < kSamples; ++i) {
        auto v = zipf.sample(rng);
        ASSERT_LT(v, 4'000'000u);
        if (v < 1000)
            ++head;
        if (v >= 2'000'000)
            ++tail;
    }
    // With theta=0.99 the first thousand items absorb a large fraction of
    // the mass while the entire top half of the key space gets little.
    EXPECT_GT(head, std::uint64_t(kSamples) / 4);
    EXPECT_LT(tail, std::uint64_t(kSamples) / 10);
}

TEST(Zipf, UniformishWhenThetaSmall)
{
    Rng rng{2};
    ZipfGenerator zipf{1000, 0.01};
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        counts[zipf.sample(rng) / 100] += 1;
    // Every decile should receive a nontrivial share.
    for (int c : counts)
        EXPECT_GT(c, 3000);
}

TEST(Hash, Crc64IsStableAndSeedSensitive)
{
    auto h1 = Crc64::hash(0xdeadbeef);
    auto h2 = Crc64::hash(0xdeadbeef);
    auto h3 = Crc64::hash(0xdeadbeef, 1);
    auto h4 = Crc64::hash(0xdeadbef0);
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, h3);
    EXPECT_NE(h1, h4);
}

TEST(Hash, Mix64Bijective)
{
    // Distinct inputs should (overwhelmingly) produce distinct outputs;
    // mix64 is in fact a bijection, so collisions indicate a typo.
    std::map<std::uint64_t, std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        auto m = mix64(i * 0x9e3779b97f4a7c15ULL);
        EXPECT_TRUE(seen.emplace(m, i).second);
    }
}

TEST(Stats, AccumulatorBasics)
{
    stats::Accumulator acc;
    EXPECT_EQ(acc.mean(), 0.0);
    acc.add(2);
    acc.add(4);
    acc.add(6);
    EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 6.0);
    EXPECT_EQ(acc.count(), 3u);

    stats::Accumulator other;
    other.add(10);
    acc.merge(other);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.5);
    EXPECT_DOUBLE_EQ(acc.max(), 10.0);
}

TEST(Stats, HistogramQuantiles)
{
    stats::Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 1000u);
    // Log-linear buckets bound relative error by 1/32.
    EXPECT_NEAR(double(h.p50()), 500.0, 500.0 / 16.0);
    EXPECT_NEAR(double(h.p95()), 950.0, 950.0 / 16.0);
    EXPECT_NEAR(double(h.p99()), 990.0, 990.0 / 16.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(Stats, HistogramMergePreservesCountsAndMean)
{
    stats::Histogram a, b;
    for (int i = 0; i < 100; ++i)
        a.add(10);
    for (int i = 0; i < 100; ++i)
        b.add(30);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_NEAR(double(a.p95()), 30.0, 2.0);
}

TEST(Stats, HistogramLargeValues)
{
    stats::Histogram h;
    h.add(0);
    h.add(std::uint64_t{1} << 40);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GE(h.quantile(0.99), std::uint64_t{1} << 39);
}

TEST(Config, TableIIIDefaults)
{
    ClusterConfig cfg;
    EXPECT_EQ(cfg.numNodes, 5u);
    EXPECT_EQ(cfg.coresPerNode, 5u);
    EXPECT_EQ(cfg.slotsPerCore, 2u);
    EXPECT_EQ(cfg.netRoundTrip, us(2));
    EXPECT_EQ(cfg.l1.accessCycles, 2u);
    EXPECT_EQ(cfg.l2.accessCycles, 12u);
    EXPECT_EQ(cfg.llcCycles, 40u);
    EXPECT_EQ(cfg.coreReadBf.bits, 1024u);
    EXPECT_EQ(cfg.coreWriteBf.bf1Bits, 512u);
    EXPECT_EQ(cfg.coreWriteBf.bf2Bits, 4096u);
    EXPECT_EQ(cfg.nicReadBf.bits, 1024u);
    EXPECT_EQ(cfg.nicWriteBf.bits, 1024u);
    EXPECT_EQ(cfg.totalCores(), 25u);
    // 4MB/core * 5 cores, 16-way, 64B lines -> 20480 sets.
    EXPECT_EQ(cfg.llcSets(), 20480u);
    EXPECT_FALSE(cfg.hasForcedLocality());
}

} // namespace
} // namespace hades
