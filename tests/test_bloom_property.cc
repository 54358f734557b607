/**
 * @file
 * Seeded randomized property tests for the conflict-detection hardware
 * models, checked against exact shadow sets:
 *
 *  - BloomFilter / SplitWriteBloomFilter must never report a false
 *    negative, and their measured false-positive rate must stay near
 *    the analytic bound.
 *  - SplitWriteBloomFilter::candidateLlcSets() must cover the LLC set
 *    of every inserted line (the Find-LLC-Tags enable signal of
 *    Figure 8 may over-approximate but never miss).
 *  - LockingBufferBank must deny every access that truly overlaps an
 *    active committer's footprint, and its held()/activeCount()
 *    bookkeeping must track an exact shadow model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "bloom/locking_buffer.hh"
#include "bloom/split_write_bloom.hh"
#include "common/config.hh"
#include "common/rng.hh"

namespace
{

using namespace hades;

Addr
randomLine(Rng &rng)
{
    return rng.next() & ~Addr{kCacheLineBytes - 1};
}

std::set<Addr>
randomLineSet(Rng &rng, std::size_t count)
{
    std::set<Addr> lines;
    while (lines.size() < count)
        lines.insert(randomLine(rng));
    return lines;
}

TEST(BloomProperty, NoFalseNegatives)
{
    for (std::uint64_t seed : {1ull, 77ull, 4242ull}) {
        Rng rng{seed};
        bloom::BloomFilter bf{1024, 4};
        auto members = randomLineSet(rng, 60);
        for (Addr a : members)
            bf.insert(a);
        for (Addr a : members)
            EXPECT_TRUE(bf.mayContain(a)) << "seed " << seed;
    }
}

TEST(BloomProperty, FprStaysNearTheTheoreticalBound)
{
    const std::uint32_t bits = 1024, k = 4;
    const std::size_t inserted = 40;
    Rng rng{2024};

    std::uint64_t fp = 0, probes = 0;
    const int trials = 50;
    for (int t = 0; t < trials; ++t) {
        bloom::BloomFilter bf{bits, k};
        auto members = randomLineSet(rng, inserted);
        for (Addr a : members)
            bf.insert(a);
        for (int i = 0; i < 4000; ++i) {
            Addr a = randomLine(rng);
            if (members.count(a))
                continue;
            ++probes;
            fp += bf.mayContain(a) ? 1 : 0;
        }
    }
    const double measured = double(fp) / double(probes);
    const double expected =
        bloom::BloomFilter::theoreticalFpr(bits, k, inserted);
    // Generous slack: the property is "the implementation behaves like
    // a Bloom filter", not a tight statistical test.
    EXPECT_LE(measured, 3.0 * expected + 0.01)
        << "measured " << measured << " vs theoretical " << expected;
    EXPECT_GT(measured, 0.0) << "a filter with zero measured FPR over "
                                "200k probes is suspiciously exact";
}

TEST(BloomProperty, SplitWriteFilterNoFalseNegativesAndSetCoverage)
{
    ClusterConfig cfg;
    for (std::uint64_t seed : {3ull, 99ull}) {
        Rng rng{seed};
        bloom::SplitWriteBloomFilter bf{cfg.coreWriteBf, cfg.llcSets()};
        auto members = randomLineSet(rng, 40);
        for (Addr a : members)
            bf.insert(a);

        std::set<std::uint64_t> candidates;
        for (auto s : bf.candidateLlcSets())
            candidates.insert(s);

        for (Addr a : members) {
            EXPECT_TRUE(bf.mayContain(a)) << "seed " << seed;
            EXPECT_TRUE(candidates.count(bf.llcSetOf(a)))
                << "candidateLlcSets missed the set of an inserted "
                   "line (seed "
                << seed << ")";
        }
    }
}

TEST(BloomProperty, SplitWriteFprBeatsAPlainFilterOfTheSameBudget)
{
    ClusterConfig cfg;
    Rng rng{515};
    std::uint64_t fp = 0, probes = 0;
    for (int t = 0; t < 30; ++t) {
        bloom::SplitWriteBloomFilter bf{cfg.coreWriteBf, cfg.llcSets()};
        auto members = randomLineSet(rng, 40);
        for (Addr a : members)
            bf.insert(a);
        for (int i = 0; i < 4000; ++i) {
            Addr a = randomLine(rng);
            if (members.count(a))
                continue;
            ++probes;
            fp += bf.mayContain(a) ? 1 : 0;
        }
    }
    // Both sections must hit for membership, so the split filter's FPR
    // is bounded by its weaker WrBF1 section alone.
    const double measured = double(fp) / double(probes);
    const double bf1_alone = bloom::BloomFilter::theoreticalFpr(
        cfg.coreWriteBf.bf1Bits, cfg.coreWriteBf.bf1Hashes, 40);
    EXPECT_LE(measured, bf1_alone * 1.5 + 0.01);
}

/** Exact shadow of one active Locking Buffer. */
struct ShadowBuffer
{
    std::uint64_t owner;
    std::set<Addr> reads;
    std::set<Addr> writes;
};

TEST(BloomProperty, LockingBufferBankMatchesExactShadowModel)
{
    ClusterConfig cfg;
    Rng rng{808};
    bloom::LockingBufferBank bank{4};
    std::vector<ShadowBuffer> shadow;

    // Draw lines from a small pool so committers genuinely collide.
    std::vector<Addr> pool;
    for (Addr a : randomLineSet(rng, 48))
        pool.push_back(a);
    auto draw = [&](std::size_t count) {
        std::set<Addr> lines;
        while (lines.size() < count)
            lines.insert(pool[rng.below(pool.size())]);
        return lines;
    };

    for (std::uint64_t op = 0; op < 400; ++op) {
        const std::uint64_t owner = 1 + rng.below(12);
        const bool known =
            std::any_of(shadow.begin(), shadow.end(),
                        [&](const auto &b) { return b.owner == owner; });

        if (known && rng.below(2) == 0) {
            bank.release(owner);
            shadow.erase(std::remove_if(shadow.begin(), shadow.end(),
                                        [&](const auto &b) {
                                            return b.owner == owner;
                                        }),
                         shadow.end());
        } else if (!known) {
            auto reads = draw(1 + rng.below(6));
            auto writes = draw(1 + rng.below(4));
            bloom::BloomFilter read_bf{cfg.nicReadBf.bits,
                                       cfg.nicReadBf.numHashes};
            bloom::BloomFilter write_bf{cfg.nicWriteBf.bits,
                                        cfg.nicWriteBf.numHashes};
            for (Addr a : reads)
                read_bf.insert(a);
            for (Addr a : writes)
                write_bf.insert(a);
            std::vector<Addr> write_lines(writes.begin(), writes.end());

            const bool bank_full = shadow.size() == 4;
            const auto res = bank.tryAcquire(owner, read_bf, write_bf,
                                             write_lines);

            const bool true_overlap = std::any_of(
                shadow.begin(), shadow.end(), [&](const auto &b) {
                    return std::any_of(
                        write_lines.begin(), write_lines.end(),
                        [&](Addr a) {
                            return b.reads.count(a) || b.writes.count(a);
                        });
                });
            if (true_overlap) {
                EXPECT_NE(res, bloom::AcquireResult::Acquired)
                    << "op " << op
                    << ": a truly overlapping committer slipped past "
                       "the Locking Buffer check";
            }
            if (bank_full) {
                EXPECT_NE(res, bloom::AcquireResult::Acquired)
                    << "op " << op << ": acquired from a full bank";
            }
            if (res == bloom::AcquireResult::Acquired)
                shadow.push_back(ShadowBuffer{owner, std::move(reads),
                                              std::move(writes)});
        }

        // Bookkeeping must track the shadow exactly.
        ASSERT_EQ(bank.activeCount(), shadow.size()) << "op " << op;
        for (const auto &b : shadow)
            ASSERT_TRUE(bank.held(b.owner)) << "op " << op;

        // Accesses that truly overlap an active footprint must be
        // denied (Bloom filters cannot produce false negatives).
        for (const auto &b : shadow) {
            const std::uint64_t stranger = 1000 + op;
            for (Addr a : b.writes)
                EXPECT_TRUE(bank.accessBlocked(a, false, stranger))
                    << "read of a buffered write line was allowed";
            for (Addr a : b.reads)
                EXPECT_TRUE(bank.accessBlocked(a, true, stranger))
                    << "write of a buffered read line was allowed";
            // The owner itself is never blocked by its own buffer.
            for (Addr a : b.writes) {
                if (std::none_of(shadow.begin(), shadow.end(),
                                 [&](const auto &o) {
                                     return o.owner != b.owner &&
                                            (o.reads.count(a) ||
                                             o.writes.count(a));
                                 })) {
                    EXPECT_FALSE(bank.accessBlocked(a, true, b.owner));
                }
            }
        }
    }
}

} // namespace
