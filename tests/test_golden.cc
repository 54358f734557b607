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
    0x82a62dcea9c29688ULL,
    0x2479e9210c4f28f6ULL,
    0x5db733c78b434bb8ULL,
    0x7049ba36131c3319ULL,
    0xf48767f20d59959bULL,
    0xccdd8a6c39349241ULL,
    0x3a2825f9ac0c264fULL,
    0x88aaff8b68fe7075ULL,
    0x6b1ab93024b9170cULL,
    0x40bdcdc73bf68b89ULL,
    0xfc2bd9f2b04abcf4ULL,
    0x3b7bf63fbe18867cULL,
    0x68875285e2a0386cULL,
    0xaf4552eef8aff23dULL,
    0xcc7bad2daf0a7a14ULL,
    0x7eb665bd036a2b07ULL,
    0x0f904bf996d0a2cdULL,
    0xf52f98b77aec1af2ULL,
    0x84bc1dba4d83eb0bULL,
    0x2a2958f45e77a71fULL,
    0x2e74cf7ad6ddae62ULL,
    0xa22b4f1b5224a684ULL,
    0x5bdb2b6a5eb303e1ULL,
    0xe1693deb217ed657ULL,
    0xfc371dd3d02eae96ULL,
    0x436547cead360293ULL,
    0xc264acde7ab14127ULL,
    0x6670be56aa17f79dULL,
    0x2913254f035c5ddeULL,
    0x6bdb29b7774a10e7ULL,
    0x60cf1f7dfd22652fULL,
    0x3e419875bec21d7fULL,
    0xd2a6f8b3e2515c8fULL,
    0xb3d019fcc4e9ee71ULL,
    0x4a759fd35f510a7eULL,
    0x7c9442422ca081e8ULL,
    0xf33be3cbb582d869ULL,
    0xca24aa40f20e7d21ULL,
    0xb9a959dd1a413b2eULL,
};

/** ResultHasher::str digests of runResultJson() for the same rows: the
 *  JSON report is a second, byte-level output that must not move when
 *  hashResult() does not. */
constexpr std::uint64_t kPinnedJsonDigests[] = {
    0xaeead7909b879289ULL,
    0x28a87bf7354bc2eeULL,
    0x49191fff004fd853ULL,
    0x2233ca4ed905a74bULL,
    0x2693c4774ec26356ULL,
    0x477e17687275a32fULL,
    0xba37456fb690b3dbULL,
    0x64a6ca8d92a71d4eULL,
    0xd0bf2d0d5f610901ULL,
    0x828ddc8caea79ebeULL,
    0xcd314e621d18cfe4ULL,
    0x33f5e7424e9c8535ULL,
    0x4d91ef240cd5b270ULL,
    0xbce8a4a1959ba261ULL,
    0x02fcc74817ab04b2ULL,
    0x1b424768c044a75cULL,
    0xd170a70e7824b097ULL,
    0x636339a0e5d8d945ULL,
    0xf85e4c92b00f00edULL,
    0xd85ab603f8bda6ffULL,
    0x72dcf1dbdb92d934ULL,
    0xdba76f33ad4c63e2ULL,
    0xfcc87d123b7d88aeULL,
    0xb5a1811787e386faULL,
    0xc9a7e2090f6c3aacULL,
    0x48ce497abc820d35ULL,
    0x842e4d98506a8290ULL,
    0x10808b28af2e74afULL,
    0xe591560affcfc7ecULL,
    0xd804b9f585b1885bULL,
    0xe5d0175a85e6a308ULL,
    0xba1199f901997e52ULL,
    0xaa15c62691dd277eULL,
    0x9ca68e0d40c4c75dULL,
    0x675c2d1f27124eafULL,
    0x6ecdacd019a63bb4ULL,
    0x9edd29e5ede77523ULL,
    0x358636b658fc07f6ULL,
    0xa3ebc0de543625bfULL,
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
