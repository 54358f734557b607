/**
 * @file
 * Cross-engine equivalence and fuzz properties.
 *
 * The three protocol engines implement the same transactional
 * semantics with different mechanisms, so:
 *
 *  - a single context executing a deterministic program sequence must
 *    leave the *identical* final database state under every engine
 *    (and that state must match a functional replay oracle);
 *  - under full concurrency, randomized transfer workloads must
 *    conserve the total balance on every engine, across cluster
 *    geometries and seeds (parameterized sweep);
 *  - both properties must survive light fault injection (message drops,
 *    duplicates, reorder delays): the recovery paths may retry and
 *    squash, but the committed history must stay serializable.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/runner.hh"
#include "fault/fault_plan.hh"
#include "protocol/system.hh"
#include "sim/task.hh"

namespace hades
{
namespace
{

using protocol::EngineKind;
using protocol::ExecCtx;
using protocol::System;
using protocol::TxnEngine;

/** Random but deterministic program: reads then derived/blind writes. */
txn::TxnProgram
fuzzProgram(Rng &rng, std::uint64_t num_records)
{
    txn::TxnProgram prog;
    std::uint32_t reads = 1 + std::uint32_t(rng.below(3));
    for (std::uint32_t i = 0; i < reads; ++i) {
        txn::Request r;
        r.record = rng.below(num_records);
        prog.requests.push_back(r);
    }
    std::uint32_t writes = 1 + std::uint32_t(rng.below(3));
    for (std::uint32_t i = 0; i < writes; ++i) {
        txn::Request w;
        w.record = rng.below(num_records);
        w.isWrite = true;
        if (rng.chance(0.6)) {
            w.derivedFromReadIdx = int(rng.below(reads));
            w.delta = std::int64_t(rng.below(20)) - 10;
        } else {
            w.delta = std::int64_t(rng.below(1000));
        }
        prog.requests.push_back(w);
    }
    return prog;
}

/** Functional replay oracle for serial execution. */
void
replay(std::map<std::uint64_t, std::int64_t> &db,
       const txn::TxnProgram &prog)
{
    std::vector<std::int64_t> read_vals;
    std::map<std::uint64_t, std::int64_t> buffered;
    auto value_of = [&](std::uint64_t rec) {
        if (buffered.count(rec))
            return buffered[rec];
        return db.count(rec) ? db[rec] : std::int64_t{0};
    };
    for (const auto &req : prog.requests) {
        if (req.isWrite) {
            std::int64_t v =
                req.derivedFromReadIdx >= 0
                    ? read_vals[std::size_t(req.derivedFromReadIdx)] +
                          req.delta
                    : req.delta;
            buffered[req.record] = v;
        } else {
            read_vals.push_back(value_of(req.record));
        }
    }
    for (auto &[rec, v] : buffered)
        db[rec] = v;
}

sim::DetachedTask
runSequence(TxnEngine &engine, ExecCtx ctx,
            const std::vector<txn::TxnProgram> &progs)
{
    for (const auto &p : progs)
        co_await engine.run(ctx, p);
}

/** Light chaos: enough to exercise every recovery path without making
 *  the simulated run long. */
void
lightFaults(ClusterConfig &cfg)
{
    cfg.faults.enabled = true;
    cfg.faults.dropAll(0.02);
    cfg.faults.dupAll(0.05);
    cfg.faults.delayAll(0.10);
    cfg.tuning.retryTimeoutBase = us(4);
    cfg.tuning.retryTimeoutCap = us(32);
}

/** Wire a FaultPlan the way the runner does (no-op when disabled). */
std::unique_ptr<fault::FaultPlan>
attachFaults(System &sys)
{
    if (!sys.config.faults.enabled)
        return nullptr;
    auto plan =
        std::make_unique<fault::FaultPlan>(sys.kernel, sys.config);
    sys.network.setFaultInjector(plan.get());
    std::vector<std::vector<sim::ComputeResource *>> cores_by_node;
    for (auto &node : sys.nodes) {
        std::vector<sim::ComputeResource *> cores;
        for (auto &core : node->cores)
            cores.push_back(core.get());
        cores_by_node.push_back(std::move(cores));
    }
    plan->scheduleNodeEvents(sys.network, cores_by_node);
    return plan;
}

TEST(Equivalence, SerialExecutionMatchesOracleOnEveryEngine)
{
    constexpr std::uint64_t kRecords = 40;
    constexpr int kTxns = 120;

    // One deterministic program sequence for all engines.
    std::vector<txn::TxnProgram> progs;
    Rng rng{0xabcde};
    for (int i = 0; i < kTxns; ++i)
        progs.push_back(fuzzProgram(rng, kRecords));

    // Oracle.
    std::map<std::uint64_t, std::int64_t> oracle;
    for (const auto &p : progs)
        replay(oracle, p);

    for (auto kind : {EngineKind::Baseline, EngineKind::Hades,
                      EngineKind::HadesHybrid}) {
        ClusterConfig cfg;
        cfg.numNodes = 3;
        cfg.coresPerNode = 1;
        cfg.slotsPerCore = 1;
        System sys(cfg, kRecords,
                   core::engineRecordBytes(kind,
                                           cfg.recordPayloadBytes));
        auto engine =
            core::makeEngine(kind, sys, cfg.recordPayloadBytes);
        runSequence(*engine, ExecCtx{0, 0, 0}, progs);
        ASSERT_TRUE(sys.kernel.run()) << engine->name();
        EXPECT_EQ(engine->stats().committed, std::uint64_t(kTxns));
        // A serial context must never be squashed.
        EXPECT_EQ(engine->stats().totalSquashes(), 0u)
            << engine->name();
        for (std::uint64_t rec = 0; rec < kRecords; ++rec) {
            std::int64_t expect =
                oracle.count(rec) ? oracle[rec] : 0;
            EXPECT_EQ(sys.data.read(rec), expect)
                << engine->name() << " diverged on record " << rec;
        }
    }
}

// --- seeded differential sweep: fault-free and light-fault -------------------

struct DiffCase
{
    std::uint64_t seed;
    bool faulty;
};

class DifferentialSweep : public ::testing::TestWithParam<DiffCase>
{};

/**
 * A serial context must produce the oracle's database on every engine,
 * with or without message-level faults. Under faults, retries and
 * timeout squashes are allowed (a serial context never conflicts, but
 * it can lose commit traffic); the committed count and the final state
 * must still be exact.
 */
TEST_P(DifferentialSweep, EnginesMatchOracle)
{
    const auto p = GetParam();
    constexpr std::uint64_t kRecords = 32;
    constexpr int kTxns = 60;

    std::vector<txn::TxnProgram> progs;
    Rng rng{0x5eed0000 + p.seed};
    for (int i = 0; i < kTxns; ++i)
        progs.push_back(fuzzProgram(rng, kRecords));

    std::map<std::uint64_t, std::int64_t> oracle;
    for (const auto &p2 : progs)
        replay(oracle, p2);

    for (auto kind : {EngineKind::Baseline, EngineKind::Hades,
                      EngineKind::HadesHybrid}) {
        ClusterConfig cfg;
        cfg.numNodes = 3;
        cfg.coresPerNode = 1;
        cfg.slotsPerCore = 1;
        cfg.seed = 100 + p.seed;
        if (p.faulty)
            lightFaults(cfg);
        System sys(cfg, kRecords,
                   core::engineRecordBytes(kind,
                                           cfg.recordPayloadBytes));
        auto engine =
            core::makeEngine(kind, sys, cfg.recordPayloadBytes);
        auto plan = attachFaults(sys);
        runSequence(*engine, ExecCtx{0, 0, 0}, progs);
        ASSERT_TRUE(sys.kernel.run()) << engine->name();
        EXPECT_EQ(engine->stats().committed, std::uint64_t(kTxns))
            << engine->name();
        if (!p.faulty) {
            EXPECT_EQ(engine->stats().totalSquashes(), 0u)
                << engine->name();
        }
        for (std::uint64_t rec = 0; rec < kRecords; ++rec) {
            std::int64_t expect =
                oracle.count(rec) ? oracle[rec] : 0;
            EXPECT_EQ(sys.data.read(rec), expect)
                << engine->name() << " diverged on record " << rec
                << (p.faulty ? " (faulty)" : "") << ", seed "
                << p.seed;
        }
    }
}

std::vector<DiffCase>
diffCases()
{
    std::vector<DiffCase> cases;
    for (std::uint64_t s = 0; s < 8; ++s)
        for (bool faulty : {false, true})
            cases.push_back({s, faulty});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DifferentialSweep, ::testing::ValuesIn(diffCases()),
    [](const auto &info) {
        return "s" + std::to_string(info.param.seed) +
               (info.param.faulty ? "_faulty" : "_clean");
    });

// --- concurrent conservation sweep -------------------------------------------

struct SweepCase
{
    EngineKind engine;
    std::uint32_t nodes;
    std::uint32_t cores;
    std::uint32_t slots;
    std::uint64_t seed;
    bool faulty = false;
};

class ConservationSweep : public ::testing::TestWithParam<SweepCase>
{};

sim::DetachedTask
transferLoop(TxnEngine &engine, ExecCtx ctx,
             std::uint64_t records, std::uint64_t seed,
             std::uint64_t txns)
{
    Rng rng{seed};
    for (std::uint64_t i = 0; i < txns; ++i) {
        std::uint64_t a = rng.below(records);
        std::uint64_t b = rng.below(records);
        if (a == b)
            b = (b + 1) % records;
        txn::TxnProgram prog;
        txn::Request ra;
        ra.record = a;
        txn::Request rb;
        rb.record = b;
        txn::Request wa;
        wa.record = a;
        wa.isWrite = true;
        wa.derivedFromReadIdx = 0;
        wa.delta = -3;
        txn::Request wb;
        wb.record = b;
        wb.isWrite = true;
        wb.derivedFromReadIdx = 1;
        wb.delta = 3;
        prog.requests = {ra, rb, wa, wb};
        co_await engine.run(ctx, prog);
    }
}

TEST_P(ConservationSweep, TotalBalancePreserved)
{
    const auto p = GetParam();
    ClusterConfig cfg;
    cfg.numNodes = p.nodes;
    cfg.coresPerNode = p.cores;
    cfg.slotsPerCore = p.slots;
    cfg.seed = p.seed;
    if (p.faulty)
        lightFaults(cfg);
    constexpr std::uint64_t kRecords = 48;
    constexpr std::uint64_t kTxns = 30;

    System sys(cfg, kRecords,
               core::engineRecordBytes(p.engine,
                                       cfg.recordPayloadBytes));
    auto engine =
        core::makeEngine(p.engine, sys, cfg.recordPayloadBytes);
    auto plan = attachFaults(sys);
    for (std::uint64_t r = 0; r < kRecords; ++r)
        sys.data.write(r, 500);

    std::uint64_t seed = p.seed * 977 + 13;
    std::uint64_t contexts = 0;
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        for (CoreId c = 0; c < cfg.coresPerNode; ++c)
            for (SlotId s = 0; s < cfg.slotsPerCore; ++s) {
                transferLoop(*engine, ExecCtx{n, c, s}, kRecords,
                             seed++, kTxns);
                ++contexts;
            }
    ASSERT_TRUE(sys.kernel.run());
    EXPECT_EQ(engine->stats().committed, contexts * kTxns);
    EXPECT_EQ(sys.data.sumRange(0, kRecords - 1),
              std::int64_t(kRecords) * 500)
        << "conservation violated (engine "
        << protocol::engineKindName(p.engine) << ", seed " << p.seed
        << ")";
}

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;
    std::uint64_t seed = 1;
    for (auto e : {EngineKind::Baseline, EngineKind::Hades,
                   EngineKind::HadesHybrid}) {
        cases.push_back({e, 2, 1, 2, seed++});
        cases.push_back({e, 3, 2, 1, seed++});
        cases.push_back({e, 5, 2, 2, seed++});
        cases.push_back({e, 2, 2, 1, seed++, true});
        cases.push_back({e, 3, 2, 1, seed++, true});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConservationSweep, ::testing::ValuesIn(sweepCases()),
    [](const auto &info) {
        const auto &c = info.param;
        std::string e = c.engine == EngineKind::Baseline ? "Baseline"
                        : c.engine == EngineKind::Hades ? "Hades"
                                                        : "HadesH";
        return e + "_n" + std::to_string(c.nodes) + "c" +
               std::to_string(c.cores) + "m" + std::to_string(c.slots) +
               (c.faulty ? "_faulty" : "");
    });

} // namespace
} // namespace hades
