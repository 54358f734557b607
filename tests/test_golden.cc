/**
 * @file
 * Golden-run determinism regression (PR 3 tentpole contract).
 *
 * Every simulation must be a pure function of its RunSpec: re-running
 * the same spec serially, through runMany() with one worker, or through
 * runMany() with eight workers must reproduce every RunResult field
 * bit-for-bit. The matrix spans the three engines, two workloads, fault
 * injection on/off, and the correctness auditor on/off, so a
 * determinism regression in any of those layers trips this test.
 *
 * Rerun comparisons cannot catch a change that moves every run the
 * same way, so PinnedDigestsMatchParent also pins the digest of each
 * golden row (plus rows for replication, crashes, membership, grey
 * failure and the lock-mode fallback) against a checked-in value.
 *
 * The CounterTable tests walk the counter tables that generate the
 * RunResult/EngineStats counters and check what each consumer does
 * with every entry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/result_hash.hh"
#include "core/result_json.hh"
#include "core/runner.hh"
#include "core/sweep.hh"

namespace
{

using namespace hades;
using hades::core::hashResult;

/** The golden matrix: engines x workloads x faults x audit, sized to
 *  finish in seconds while still exercising every protocol path. */
std::vector<core::RunSpec>
goldenSpecs()
{
    const protocol::EngineKind engines[] = {
        protocol::EngineKind::Baseline,
        protocol::EngineKind::HadesHybrid,
        protocol::EngineKind::Hades,
    };
    const core::MixEntry workloads[] = {
        {workload::AppKind::YcsbA, kvs::StoreKind::HashTable},
        {workload::AppKind::Tpcc, kvs::StoreKind::HashTable},
    };

    std::vector<core::RunSpec> specs;
    for (auto engine : engines) {
        for (const auto &entry : workloads) {
            for (bool faults : {false, true}) {
                for (bool audit : {false, true}) {
                    core::RunSpec spec;
                    spec.engine = engine;
                    spec.mix = {entry};
                    spec.cluster.numNodes = 3;
                    spec.cluster.coresPerNode = 2;
                    spec.cluster.slotsPerCore = 2;
                    spec.txnsPerContext = 10;
                    spec.scaleKeys = 4000;
                    spec.audit = audit;
                    if (faults) {
                        spec.cluster.faults.enabled = true;
                        spec.cluster.faults.dropAll(0.02);
                        spec.cluster.faults.dupAll(0.01);
                        spec.cluster.faults.delayAll(0.02);
                    }
                    specs.push_back(spec);
                }
            }
        }
    }
    return specs;
}

/** A small audited three-node YCSB-A spec the extra pinned rows
 *  start from. */
core::RunSpec
smallSpec(protocol::EngineKind engine)
{
    core::RunSpec spec;
    spec.engine = engine;
    spec.mix = {{workload::AppKind::YcsbA, kvs::StoreKind::HashTable}};
    spec.cluster.numNodes = 3;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 2;
    spec.txnsPerContext = 10;
    spec.scaleKeys = 4000;
    spec.audit = true;
    return spec;
}

/** Rows for the paths the golden matrix does not reach: replication
 *  with recovery, a permanent crash, a membership join, a slow NIC with
 *  every grey-failure mitigation, the forced lock-mode fallback, and
 *  lost replica-staging updates. */
std::vector<std::pair<std::string, core::RunSpec>>
extraPinnedSpecs()
{
    using protocol::EngineKind;
    std::vector<std::pair<std::string, core::RunSpec>> rows;
    for (auto engine : {EngineKind::HadesHybrid, EngineKind::Hades}) {
        const std::string e = protocol::engineKindName(engine);

        auto repl = smallSpec(engine);
        repl.replication.degree = 2;
        repl.cluster.recovery.enabled = true;
        rows.emplace_back(e + "/replication", repl);

        auto crash = repl;
        crash.mix = {{workload::AppKind::Smallbank,
                      kvs::StoreKind::HashTable}};
        FaultConfig::NodeEvent dead;
        dead.node = 2;
        dead.at = us(30);
        dead.crash = true;
        dead.forever = true;
        crash.cluster.faults.enabled = true;
        crash.cluster.faults.nodeEvents.push_back(dead);
        rows.emplace_back(e + "/crash-forever", crash);

        auto join = smallSpec(engine);
        join.cluster.numNodes = 4;
        join.cluster.membership.initialMembers = 3;
        join.cluster.membership.joins.push_back({3, us(20)});
        join.cluster.recovery.enabled = true;
        join.replication.degree = 1;
        rows.emplace_back(e + "/join", join);

        auto grey = smallSpec(engine);
        grey.replication.degree = 2;
        FaultConfig::GreyEvent slow;
        slow.kind = FaultConfig::GreyEvent::Kind::SlowNic;
        slow.node = 1;
        slow.factorPct = 600;
        slow.at = 0;
        slow.until = kTickMax;
        grey.cluster.faults.enabled = true;
        grey.cluster.faults.greyEvents.push_back(slow);
        grey.cluster.slo.enabled = true;
        grey.cluster.admission.enabled = true;
        grey.cluster.admission.maxInFlight = 3;
        grey.cluster.admission.retryBudgetPct = 25;
        rows.emplace_back(e + "/slow-nic", grey);

        auto lock = repl;
        lock.cluster.tuning.maxSquashesBeforeLockMode = 1;
        rows.emplace_back(e + "/lock-mode", lock);
    }
    auto lock = smallSpec(EngineKind::Baseline);
    lock.cluster.recovery.enabled = true;
    lock.cluster.tuning.maxSquashesBeforeLockMode = 1;
    rows.emplace_back("Baseline/lock-mode", lock);

    // Baseline stages replicas only with recovery on.
    auto repl = smallSpec(EngineKind::Baseline);
    repl.replication.degree = 2;
    repl.cluster.recovery.enabled = true;
    rows.emplace_back("Baseline/replication", repl);

    // Lost staging updates: the replica-timeout abort and its discard.
    for (auto engine : {EngineKind::HadesHybrid, EngineKind::Hades,
                        EngineKind::Baseline}) {
        auto loss = smallSpec(engine);
        loss.replication.degree = 2;
        loss.replication.messageLossProbability = 0.05;
        loss.cluster.recovery.enabled = true;
        rows.emplace_back(
            std::string(protocol::engineKindName(engine)) + "/replica-loss",
            loss);
    }
    return rows;
}

/** Digests of goldenSpecs() followed by extraPinnedSpecs(). A change
 *  that moves any simulated result -- a refactor meant to be
 *  behaviour-preserving included -- fails here. Update these only for
 *  a change that is meant to move results, and say so in its log. */
constexpr std::uint64_t kPinnedDigests[] = {
    0x6572d202e75fda88ULL,
    0x07468d5549ec6cf6ULL,
    0x59946842f9cd386bULL,
    0x5023445b225dace2ULL,
    0xde0d9852f87d231bULL,
    0xb47982e0397060c1ULL,
    0x4f665c3a12b0e1d2ULL,
    0x109fed07fdd7f628ULL,
    0xeab4d1aa848f9d0cULL,
    0xc057e6419bcd1189ULL,
    0x245b99b3964ed786ULL,
    0xf818e7b69d64a75eULL,
    0x0b3100d1d09f6e6cULL,
    0x51ef013ae6af283dULL,
    0x262b6e2d0b21ca56ULL,
    0xd621698236482135ULL,
    0x6618702952d3494dULL,
    0xee2801af90234372ULL,
    0xd61f36d5413ed4feULL,
    0x41f48538b1610672ULL,
    0xc2d8d40947795f62ULL,
    0x368f53a9c2c05784ULL,
    0xad7f3039e642bcf6ULL,
    0x1488bf8cdff08820ULL,
    0xb2fdfd06809ae6f2ULL,
    0x9045a5554b5da130ULL,
    0x7aee156f3a29baabULL,
    0x330dd084b5f4f793ULL,
    0xd46a0c0fca71529aULL,
    0xb333d5d36669b7c7ULL,
    0x98af888d9944818aULL,
    0x616dfd1a26a692cdULL,
    0x2fd391418c25fc69ULL,
    0xc56bf4fb352b2491ULL,
    0x784f10b4ad25331eULL,
    0x96136f12a27b7b48ULL,
    0xdb56d89a8736fa36ULL,
    0x52c315477115ce81ULL,
    0xded0b5a37e79530eULL,
};

/** ResultHasher::str digests of runResultJson() for the same rows: the
 *  JSON report is a second, byte-level output that must not move when
 *  hashResult() does not. */
constexpr std::uint64_t kPinnedJsonDigests[] = {
    0x2ff4263b82879b2aULL,
    0x4b78ac1cd9cd4b3dULL,
    0x390730e251d2bcb8ULL,
    0xa4a019f33bf36ed4ULL,
    0xf5390536a2f4c559ULL,
    0xfb49dd90a2219b00ULL,
    0xaf25fbb2e1b139ffULL,
    0x4ff2d6d5910e12b2ULL,
    0xd4ca5def8baf7ed2ULL,
    0x9c18d217b65b36a5ULL,
    0xc263b21b342ea168ULL,
    0x136d688d29fc161fULL,
    0x8730f79f90f5497bULL,
    0x6787cfec0d674e5eULL,
    0x5adea7129de3c833ULL,
    0xa45d1c2b7dc76aedULL,
    0x6a45dd58bf08d9bfULL,
    0x8760a5be263f9091ULL,
    0x5c59c0f7eee52b7cULL,
    0x24e74d55f1093000ULL,
    0x7ddf873aaeb834e4ULL,
    0xb9346880976c10deULL,
    0x1e67d9613bb029a9ULL,
    0x32dc3361e984820dULL,
    0xeddbe3e3c7fb0cbcULL,
    0xbe1f7bf9bfa90a9eULL,
    0xc237f6e5a39dc933ULL,
    0xd6dd7cba05c437f1ULL,
    0x57ed0134e771191cULL,
    0x67a08fa50529c497ULL,
    0x85a5e4a7e7ecdc86ULL,
    0x676075466eb3cb10ULL,
    0x8913cc3a9e2c0495ULL,
    0x8229b67f3811a5b5ULL,
    0x59f36ef0b680f040ULL,
    0xad82b5b6a3f7c823ULL,
    0x73305ee2b90987d0ULL,
    0xb46afc4da55421ceULL,
    0x578ca326be73cef8ULL,
};

TEST(Golden, PinnedDigestsMatchParent)
{
    std::vector<std::pair<std::string, core::RunSpec>> rows;
    for (const auto &spec : goldenSpecs()) {
        rows.emplace_back(
            std::string(protocol::engineKindName(spec.engine)) + "/" +
                workload::appKindName(spec.mix[0].app) +
                (spec.cluster.faults.enabled ? "/faults" : "") +
                (spec.audit ? "/audit" : ""),
            spec);
    }
    for (auto &row : extraPinnedSpecs())
        rows.push_back(std::move(row));

    ASSERT_EQ(rows.size(), std::size(kPinnedDigests));
    ASSERT_EQ(rows.size(), std::size(kPinnedJsonDigests));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto res = core::runOne(rows[i].second);
        EXPECT_EQ(hashResult(res), kPinnedDigests[i])
            << rows[i].first << " committed=" << res.stats.committed;
        core::ResultHasher json;
        json.str(core::runResultJson(res));
        EXPECT_EQ(json.value(), kPinnedJsonDigests[i]) << rows[i].first;
    }
}

TEST(Golden, SerialRerunIsBitIdentical)
{
    for (const auto &spec : goldenSpecs()) {
        const auto first = hashResult(core::runOne(spec));
        const auto second = hashResult(core::runOne(spec));
        EXPECT_EQ(first, second)
            << "engine=" << int(spec.engine)
            << " app=" << int(spec.mix[0].app)
            << " faults=" << spec.cluster.faults.enabled
            << " audit=" << spec.audit;
    }
}

TEST(Golden, RunManyMatchesSerialAtAnyJobCount)
{
    const auto specs = goldenSpecs();

    std::vector<std::uint64_t> serial;
    serial.reserve(specs.size());
    for (const auto &spec : specs)
        serial.push_back(hashResult(core::runOne(spec)));

    for (unsigned jobs : {1u, 8u}) {
        core::SweepOptions opts;
        opts.jobs = jobs;
        const auto outcomes = core::runMany(specs, opts);
        ASSERT_EQ(outcomes.size(), specs.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            ASSERT_TRUE(outcomes[i].ok)
                << "jobs=" << jobs << " i=" << i << ": "
                << outcomes[i].error;
            EXPECT_EQ(outcomes[i].index, i);
            EXPECT_EQ(hashResult(outcomes[i].result), serial[i])
                << "jobs=" << jobs << " spec " << i
                << " diverged from the serial run";
        }
    }
}

/** Every scalar counter of @p r with its table entry, EngineStats
 *  first; @p f may change the counter. */
template <class F>
void
forEachCounter(core::RunResult &r, F &&f)
{
    txn::forEachStatsCounter(r.stats, f);
    core::forEachResultCounter(r, f);
}

std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + 1))
        ++n;
    return n;
}

TEST(CounterTable, HashCoversExactlyTheHashedEntries)
{
    core::RunResult probe;
    std::size_t entries = 0;
    std::set<std::string> observed;
    forEachCounter(probe, [&](const txn::CounterInfo &c, auto &) {
        ++entries;
        if (c.hashing == txn::Hashing::Observed)
            observed.insert(c.key);
    });
    for (const char *key : {"shards_used", "shards_threaded", "lane_closed",
                            "shard_windows", "cross_shard_events",
                            "serial_rerun"})
        EXPECT_TRUE(observed.count(key)) << key << " must be Observed";

    const std::uint64_t base = hashResult(core::RunResult{});
    for (std::size_t i = 0; i < entries; ++i) {
        core::RunResult r;
        txn::CounterInfo bumped{};
        std::size_t k = 0;
        forEachCounter(r, [&](const txn::CounterInfo &c, auto &v) {
            if (k++ != i)
                return;
            bumped = c;
            if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                         bool>)
                v = !v;
            else
                v += 1;
        });
        EXPECT_EQ(hashResult(r) != base,
                  bumped.hashing == txn::Hashing::Hashed)
            << bumped.key;
    }
}

TEST(CounterTable, JsonNamesEveryCounterOnce)
{
    const core::RunResult r;
    const std::string json = core::runResultJson(r);
    const auto split = json.find(",\"stats\":{");
    ASSERT_NE(split, std::string::npos);
    const std::string top = json.substr(0, split);
    const std::string stats = json.substr(split);
    auto once = [](const std::string &object) {
        return [&object](const txn::CounterInfo &c, auto) {
            const std::string tag = std::string("\"") + c.key + "\":";
            EXPECT_EQ(countOf(object, tag), 1u) << c.key;
        };
    };
    core::forEachResultCounter(r, once(top));
    txn::forEachStatsCounter(r.stats, once(stats));
}

TEST(CounterTable, MergeSumsAndTakesMaxima)
{
    // Entry i holds i+1 in a and 2(i+1) in b: a sum gives 3(i+1), a
    // max 2(i+1), in either merge order.
    txn::EngineStats a, b;
    std::uint64_t k = 0;
    txn::forEachStatsCounter(a, [&](const txn::CounterInfo &, auto &v) {
        v = ++k;
    });
    k = 0;
    txn::forEachStatsCounter(b, [&](const txn::CounterInfo &, auto &v) {
        v = 2 * ++k;
    });
    txn::EngineStats ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    for (const auto *merged : {&ab, &ba}) {
        k = 0;
        txn::forEachStatsCounter(
            *merged, [&](const txn::CounterInfo &c, auto v) {
                ++k;
                const std::string key = c.key;
                const bool max =
                    key == "max_lines_read" || key == "max_lines_written";
                EXPECT_EQ(std::uint64_t(v), (max ? 2 : 3) * k) << key;
            });
    }
}

} // namespace
