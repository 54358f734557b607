/**
 * @file
 * Unit tests for the memory hierarchy: cache tag arrays, the LLC
 * directory with WrTX ID tags and transaction-aware replacement, the
 * timed hierarchy, and record placement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "mem/address_space.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/llc_directory.hh"

namespace hades::mem
{
namespace
{

TEST(CacheArray, HitAfterInsert)
{
    CacheArray c{64 * 1024, 8};
    EXPECT_FALSE(c.probe(0x1000));
    c.insert(0x1000);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheArray, LruEvictionWithinSet)
{
    // 2-way, tiny cache: 2 sets of 2 ways.
    CacheArray c{4 * kCacheLineBytes, 2};
    ASSERT_EQ(c.numSets(), 2u);
    Addr set0_a = 0 * kCacheLineBytes;
    Addr set0_b = 2 * kCacheLineBytes;
    Addr set0_c = 4 * kCacheLineBytes;
    c.insert(set0_a);
    c.insert(set0_b);
    c.probe(set0_a); // make b the LRU
    auto evicted = c.insert(set0_c);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, set0_b);
    EXPECT_TRUE(c.contains(set0_a));
    EXPECT_TRUE(c.contains(set0_c));
}

TEST(CacheArray, InvalidateAndClear)
{
    CacheArray c{64 * 1024, 8};
    c.insert(0x40);
    c.invalidate(0x40);
    EXPECT_FALSE(c.contains(0x40));
    c.insert(0x40);
    c.insert(0x80);
    c.clear();
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.contains(0x80));
}

TEST(CacheArray, InsertExistingLineIsNotEviction)
{
    CacheArray c{4 * kCacheLineBytes, 2};
    c.insert(0);
    EXPECT_FALSE(c.insert(0).has_value());
}

TEST(LlcDirectory, WrTxIdTagging)
{
    LlcDirectory llc{1 * 1024 * 1024, 16};
    EXPECT_EQ(llc.wrTxIdOf(0x40), 0u);
    llc.setWrTxId(0x40, 7);
    EXPECT_EQ(llc.wrTxIdOf(0x40), 7u);
    EXPECT_EQ(llc.numLinesWrittenBy(7), 1u);
    // Re-tagging by the same transaction is idempotent.
    llc.setWrTxId(0x40, 7);
    EXPECT_EQ(llc.numLinesWrittenBy(7), 1u);
}

TEST(LlcDirectory, FindLinesWrittenBy)
{
    LlcDirectory llc{1 * 1024 * 1024, 16};
    std::set<Addr> lines;
    for (int i = 0; i < 40; ++i) {
        Addr a = Addr(i) * 4096;
        llc.setWrTxId(a, 9);
        lines.insert(a);
    }
    auto found = llc.linesWrittenBy(9);
    EXPECT_EQ(found.size(), lines.size());
    for (Addr a : found)
        EXPECT_TRUE(lines.count(a));
}

TEST(LlcDirectory, ClearTxTagsCommit)
{
    LlcDirectory llc{1 * 1024 * 1024, 16};
    llc.setWrTxId(0x40, 5);
    llc.setWrTxId(0x80, 5);
    llc.clearTxTags(5, /*invalidate=*/false);
    EXPECT_EQ(llc.numLinesWrittenBy(5), 0u);
    EXPECT_EQ(llc.wrTxIdOf(0x40), 0u);
    // Lines stay resident after commit.
    EXPECT_TRUE(llc.probe(0x40));
}

TEST(LlcDirectory, ClearTxTagsSquashInvalidates)
{
    LlcDirectory llc{1 * 1024 * 1024, 16};
    llc.setWrTxId(0x40, 5);
    llc.clearTxTags(5, /*invalidate=*/true);
    EXPECT_FALSE(llc.probe(0x40)); // miss: the line was dropped
}

TEST(LlcDirectory, TxAwareReplacementPrefersCleanVictims)
{
    // 2 sets x 2 ways. Fill one set with one speculative and one clean
    // line; inserting a third must evict the clean one.
    LlcDirectory llc{4 * kCacheLineBytes, 2};
    std::uint64_t squashed = 0;
    llc.setSquashHook([&](std::uint64_t tx) { squashed = tx; });

    Addr spec = 0, clean = 2 * kCacheLineBytes,
         incoming = 4 * kCacheLineBytes;
    llc.setWrTxId(spec, 3);
    llc.insert(clean);
    llc.insert(incoming);
    EXPECT_EQ(squashed, 0u) << "clean line should have been evicted";
    EXPECT_EQ(llc.wrTxIdOf(spec), 3u);
    EXPECT_TRUE(llc.probe(incoming));
    EXPECT_FALSE(llc.probe(clean));
}

TEST(LlcDirectory, AllSpeculativeSetSquashesOwner)
{
    LlcDirectory llc{4 * kCacheLineBytes, 2};
    std::vector<std::uint64_t> squashed;
    llc.setSquashHook(
        [&](std::uint64_t tx) { squashed.push_back(tx); });

    llc.setWrTxId(0, 11);
    llc.setWrTxId(2 * kCacheLineBytes, 12);
    llc.insert(4 * kCacheLineBytes); // same set, every way speculative
    ASSERT_EQ(squashed.size(), 1u);
    EXPECT_EQ(llc.speculativeEvictions(), 1u);
    EXPECT_TRUE(squashed[0] == 11 || squashed[0] == 12);
    // The victim's index entry is gone.
    EXPECT_EQ(llc.numLinesWrittenBy(squashed[0]), 0u);
}

TEST(NodeMemory, LatencyLadder)
{
    ClusterConfig cfg;
    NodeMemory mem{cfg};
    Clock clk = cfg.clock();

    // Cold: DRAM, an isolated row miss (~100 ns, Table III).
    const DramParams dp;
    auto a0 = mem.access(0, 0x1000);
    EXPECT_EQ(a0.level, HitLevel::DRAM);
    EXPECT_EQ(a0.latency, clk.cycles(cfg.llcCycles) + dp.tRp + dp.tRcd +
                              dp.tCas + dp.tBurst + dp.tController);

    // Warm: L1.
    auto a1 = mem.access(0, 0x1000);
    EXPECT_EQ(a1.level, HitLevel::L1);
    EXPECT_EQ(a1.latency, clk.cycles(cfg.l1.accessCycles));

    // Another core on the same node: hits the shared LLC.
    auto a2 = mem.access(1, 0x1000);
    EXPECT_EQ(a2.level, HitLevel::LLC);
    EXPECT_EQ(a2.latency, clk.cycles(cfg.llcCycles));
}

TEST(NodeMemory, CachedAccessDoesNotFill)
{
    ClusterConfig cfg;
    NodeMemory mem{cfg};
    EXPECT_FALSE(mem.cachedAccess(0, 0x4000).has_value());
    // Still not resident: cachedAccess must not allocate.
    EXPECT_FALSE(mem.cachedAccess(0, 0x4000).has_value());
    mem.access(0, 0x4000);
    auto hit = mem.cachedAccess(0, 0x4000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->level, HitLevel::L1);
}

TEST(NodeMemory, NicAccessBypassesPrivateCaches)
{
    ClusterConfig cfg;
    NodeMemory mem{cfg};
    auto first = mem.nicAccess(0x2000);
    EXPECT_EQ(first.level, HitLevel::DRAM);
    auto second = mem.nicAccess(0x2000);
    EXPECT_EQ(second.level, HitLevel::LLC);
    // The line is not in any core's private hierarchy.
    EXPECT_FALSE(mem.l1(0).contains(0x2000));
}

TEST(TagLayout, AtMostTwelveBytesPerModelledLine)
{
    ClusterConfig cfg;
    NodeMemory mem{cfg};
    const auto lines = [](auto &a) { return a.numSets() * a.ways(); };
    EXPECT_LE(mem.llc().footprintBytes(), 12 * lines(mem.llc()));
    EXPECT_LE(mem.l1(0).footprintBytes(), 12 * lines(mem.l1(0)));
    EXPECT_LE(mem.l2(0).footprintBytes(), 12 * lines(mem.l2(0)));
}

// --- differential: compact tag layout vs array-of-structs reference ---------

/** The array-of-structs CacheArray the compact layout replaced: one
 *  {valid, line, lru} record per way and one array-wide LRU stamp. */
class RefCacheArray
{
  public:
    RefCacheArray(std::uint64_t size_bytes, std::uint32_t ways)
        : sets_(size_bytes / (std::uint64_t{kCacheLineBytes} * ways)),
          ways_(ways), array_(sets_ * ways_)
    {
    }

    bool
    probe(Addr line)
    {
        if (Way *w = find(line)) {
            w->lru = ++stamp_;
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    bool contains(Addr line) { return find(line) != nullptr; }

    std::optional<Addr>
    insert(Addr line)
    {
        if (Way *w = find(line)) {
            w->lru = ++stamp_;
            return std::nullopt;
        }
        Way *base = &array_[setOf(line) * ways_];
        Way *victim = &base[0];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        std::optional<Addr> evicted;
        if (victim->valid)
            evicted = victim->line;
        *victim = Way{true, line, ++stamp_};
        return evicted;
    }

    void
    invalidate(Addr line)
    {
        if (Way *w = find(line))
            w->valid = false;
    }

    void
    clear()
    {
        for (auto &w : array_)
            w.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        std::uint64_t lru = 0;
    };

    std::uint64_t setOf(Addr line) const
    {
        return (line / kCacheLineBytes) % sets_;
    }

    Way *
    find(Addr line)
    {
        Way *base = &array_[setOf(line) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].line == line)
                return &base[w];
        return nullptr;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    std::vector<Way> array_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** The array-of-structs LlcDirectory the compact layout replaced: a
 *  64-bit WrTX ID in every way, TX-aware replacement over it. */
class RefLlcDirectory
{
  public:
    RefLlcDirectory(std::uint64_t size_bytes, std::uint32_t ways,
                    std::vector<std::uint64_t> &squashed)
        : sets_(size_bytes / (std::uint64_t{kCacheLineBytes} * ways)),
          ways_(ways), array_(sets_ * ways_), squashed_(squashed)
    {
    }

    bool
    probe(Addr line)
    {
        if (Way *w = find(line)) {
            w->lru = ++stamp_;
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    void
    insert(Addr line)
    {
        if (Way *w = find(line)) {
            w->lru = ++stamp_;
            return;
        }
        Way *base = &array_[setOf(line) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                base[w] = Way{true, line, ++stamp_, 0};
                return;
            }
        }
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].wrTxId == 0 &&
                (!victim || base[w].lru < victim->lru)) {
                victim = &base[w];
            }
        }
        if (!victim) {
            victim = &base[0];
            for (std::uint32_t w = 1; w < ways_; ++w)
                if (base[w].lru < victim->lru)
                    victim = &base[w];
        }
        if (victim->wrTxId != 0) {
            ++specEvictions_;
            const std::uint64_t owner = victim->wrTxId;
            auto it = writers_.find(owner);
            it->second.erase(victim->line);
            if (it->second.empty())
                writers_.erase(it);
            squashed_.push_back(owner);
        }
        *victim = Way{true, line, ++stamp_, 0};
    }

    std::uint64_t
    wrTxIdOf(Addr line)
    {
        const Way *w = find(line);
        return w ? w->wrTxId : 0;
    }

    void
    setWrTxId(Addr line, std::uint64_t tx_id)
    {
        insert(line);
        Way *w = find(line);
        if (w->wrTxId == 0)
            writers_[tx_id].insert(line);
        w->wrTxId = tx_id;
    }

    std::vector<Addr>
    linesWrittenBy(std::uint64_t tx_id) const
    {
        std::vector<Addr> out;
        auto it = writers_.find(tx_id);
        if (it == writers_.end())
            return out;
        // det-lint: ordered-ok (sorted below)
        out.assign(it->second.begin(), it->second.end());
        std::sort(out.begin(), out.end());
        return out;
    }

    void
    clearTxTags(std::uint64_t tx_id, bool invalidate)
    {
        auto it = writers_.find(tx_id);
        if (it == writers_.end())
            return;
        for (Addr line : it->second) { // det-lint: ordered-ok
            if (Way *w = find(line)) {
                w->wrTxId = 0;
                if (invalidate)
                    w->valid = false;
            }
        }
        writers_.erase(it);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t speculativeEvictions() const { return specEvictions_; }
    std::size_t taggedTxCount() const { return writers_.size(); }

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        std::uint64_t lru = 0;
        std::uint64_t wrTxId = 0;
    };

    std::uint64_t setOf(Addr line) const
    {
        return (line / kCacheLineBytes) % sets_;
    }

    Way *
    find(Addr line)
    {
        Way *base = &array_[setOf(line) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].line == line)
                return &base[w];
        return nullptr;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    std::vector<Way> array_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t specEvictions_ = 0;
    std::vector<std::uint64_t> &squashed_;
    std::unordered_map<std::uint64_t, std::unordered_set<Addr>> writers_;
};

/** A tag array's geometry for the differential runs. */
struct Geometry
{
    std::uint64_t sets;
    std::uint32_t ways;

    std::uint64_t bytes() const { return sets * ways * kCacheLineBytes; }
};

/** Small geometries (sets a power of two and not; the widest masks) so
 *  every set fills, evicts and wraps its 16-bit LRU clock many times. */
const Geometry kDiffGeometries[] = {{1, 4}, {3, 4}, {2, 8}, {5, 16}, {1, 32}};

/** Line addresses homed on several nodes (bits >= kNodeShift): on an
 *  array with few sets their tags exceed 32 bits. */
std::vector<Addr>
diffLines(const Geometry &g)
{
    std::vector<Addr> lines;
    for (Addr node : {0, 1, 7, 99})
        for (std::uint64_t i = 0; i < 3 * g.sets * g.ways; ++i)
            lines.push_back((node << kNodeShift) + i * kCacheLineBytes);
    return lines;
}

constexpr int kDiffOps = 300'000;

TEST(TagLayoutDifferential, CacheArrayMatchesArrayOfStructs)
{
    for (const Geometry &g : kDiffGeometries) {
        SCOPED_TRACE(testing::Message() << g.sets << "x" << g.ways);
        CacheArray dut{g.bytes(), g.ways};
        RefCacheArray ref{g.bytes(), g.ways};
        ASSERT_EQ(dut.numSets(), g.sets);
        const auto lines = diffLines(g);
        Rng rng{0xcace + g.sets * 64 + g.ways};
        for (int op = 0; op < kDiffOps; ++op) {
            const Addr line = lines[rng.below(lines.size())];
            const std::uint64_t kind = rng.below(1000);
            if (kind < 400) {
                ASSERT_EQ(dut.probe(line), ref.probe(line)) << "op " << op;
            } else if (kind < 850) {
                ASSERT_EQ(dut.insert(line), ref.insert(line)) << "op " << op;
            } else if (kind < 930) {
                ASSERT_EQ(dut.contains(line), ref.contains(line))
                    << "op " << op;
            } else if (kind < 999) {
                dut.invalidate(line);
                ref.invalidate(line);
            } else {
                dut.clear();
                ref.clear();
            }
            ASSERT_EQ(dut.hits(), ref.hits()) << "op " << op;
            ASSERT_EQ(dut.misses(), ref.misses()) << "op " << op;
            if (op % 1024 == 0) {
                for (Addr l : lines)
                    ASSERT_EQ(dut.contains(l), ref.contains(l))
                        << "op " << op;
            }
        }
    }
}

TEST(TagLayoutDifferential, LlcDirectoryMatchesArrayOfStructs)
{
    constexpr std::uint64_t kTxns = 12;
    for (const Geometry &g : kDiffGeometries) {
        SCOPED_TRACE(testing::Message() << g.sets << "x" << g.ways);
        std::vector<std::uint64_t> dut_squashed, ref_squashed;
        LlcDirectory dut{g.bytes(), g.ways};
        dut.setSquashHook(
            [&](std::uint64_t tx) { dut_squashed.push_back(tx); });
        RefLlcDirectory ref{g.bytes(), g.ways, ref_squashed};
        ASSERT_EQ(dut.numSets(), g.sets);
        const auto lines = diffLines(g);
        Rng rng{0x11c + g.sets * 64 + g.ways};
        std::uint64_t commits = 0, squashes = 0;
        for (int op = 0; op < kDiffOps; ++op) {
            const Addr line = lines[rng.below(lines.size())];
            const std::uint64_t tx = 1 + rng.below(kTxns);
            const std::uint64_t kind = rng.below(100);
            if (kind < 25) {
                ASSERT_EQ(dut.probe(line), ref.probe(line)) << "op " << op;
            } else if (kind < 45) {
                dut.insert(line);
                ref.insert(line);
            } else if (kind < 55) {
                ASSERT_EQ(dut.wrTxIdOf(line), ref.wrTxIdOf(line))
                    << "op " << op;
            } else if (kind < 92) {
                // A line another transaction tagged is a conflict the
                // protocol squashes before it tags; mirror that.
                const std::uint64_t owner = ref.wrTxIdOf(line);
                if (owner == 0 || owner == tx) {
                    dut.setWrTxId(line, tx);
                    ref.setWrTxId(line, tx);
                }
            } else {
                const bool squash = rng.below(2) == 0;
                ASSERT_EQ(dut.linesWrittenBy(tx), ref.linesWrittenBy(tx))
                    << "op " << op;
                dut.clearTxTags(tx, squash);
                ref.clearTxTags(tx, squash);
                ++(squash ? squashes : commits);
            }
            ASSERT_EQ(dut_squashed, ref_squashed) << "op " << op;
            dut_squashed.clear();
            ref_squashed.clear();
            ASSERT_EQ(dut.hits(), ref.hits()) << "op " << op;
            ASSERT_EQ(dut.misses(), ref.misses()) << "op " << op;
            ASSERT_EQ(dut.speculativeEvictions(),
                      ref.speculativeEvictions())
                << "op " << op;
            ASSERT_EQ(dut.taggedTxCount(), ref.taggedTxCount())
                << "op " << op;
            if (op % 1024 == 0) {
                // Same resident set (so the same lines were evicted) and
                // the same tags; the probes touch both sides alike.
                for (Addr l : lines) {
                    ASSERT_EQ(dut.wrTxIdOf(l), ref.wrTxIdOf(l))
                        << "op " << op;
                    ASSERT_EQ(dut.probe(l), ref.probe(l)) << "op " << op;
                }
                for (std::uint64_t t = 1; t <= kTxns; ++t) {
                    ASSERT_EQ(dut.linesWrittenBy(t), ref.linesWrittenBy(t))
                        << "op " << op;
                    ASSERT_EQ(dut.numLinesWrittenBy(t),
                              ref.linesWrittenBy(t).size())
                        << "op " << op;
                }
            }
        }
        // Every path ran: commits, squashes, and all-speculative sets
        // whose eviction squashed an owner.
        EXPECT_GT(commits, 0u);
        EXPECT_GT(squashes, 0u);
        EXPECT_GT(dut.speculativeEvictions(), 0u);
    }
}

// --- placement ---------------------------------------------------------------

TEST(Placement, UniformDistributionAcrossNodes)
{
    Placement p{5, 100'000, 256};
    std::vector<std::uint64_t> per_node(5, 0);
    for (std::uint64_t r = 0; r < 100'000; ++r)
        per_node[p.homeOf(r)] += 1;
    for (auto n : per_node) {
        EXPECT_GT(n, 18'000u);
        EXPECT_LT(n, 22'000u);
    }
}

TEST(Placement, AddressesHomedCorrectly)
{
    Placement p{4, 10'000, 256};
    for (std::uint64_t r = 0; r < 10'000; r += 97)
        EXPECT_EQ(homeOfAddr(p.addrOf(r)), p.homeOf(r));
}

TEST(Placement, RecordsDoNotOverlap)
{
    Placement p{3, 5'000, 192};
    std::set<Addr> seen;
    for (std::uint64_t r = 0; r < 5'000; ++r)
        EXPECT_TRUE(seen.insert(p.addrOf(r)).second);
    // 192B is already line-aligned, so slots stay 192B.
    EXPECT_EQ(p.recordBytes(), 192u);
}

TEST(Placement, RegisteredRecords)
{
    Placement p{4, 1'000, 256};
    auto rid = Placement::makeRegisteredId(2, 42);
    EXPECT_EQ(p.homeOf(rid), 2u);
    Addr a = p.registerRecord(rid, 2, 512);
    EXPECT_EQ(p.addrOf(rid), a);
    EXPECT_EQ(homeOfAddr(a), 2u);
}

TEST(Placement, RegisteredIdsDistinctFromData)
{
    auto rid = Placement::makeRegisteredId(0, 0);
    EXPECT_NE(rid & Placement::kRegisteredBit, 0u);
}

} // namespace
} // namespace hades::mem
