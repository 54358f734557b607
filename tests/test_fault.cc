/**
 * @file
 * Deterministic chaos tests for the fault-injection layer.
 *
 * Each test wires a FaultPlan into a small cluster exactly like the
 * runner does, drives conflicting increment/transfer workloads through
 * an engine while messages are dropped / duplicated / delayed / stalled
 * (or whole nodes pause and crash), and then asserts the full
 * correctness contract:
 *
 *  - the simulation terminates (every transaction eventually commits),
 *  - the committed history is serializable (increments are applied
 *    exactly once; transfers conserve the total balance),
 *  - no hardware or software state leaks (locking buffers, WrTX tags,
 *    NIC filters, record locks),
 *  - the run is bit-reproducible under a fixed seed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "fault/fault_plan.hh"
#include "net/network.hh"
#include "protocol/system.hh"
#include "sim/task.hh"

namespace hades
{
namespace
{

using net::MsgType;
using protocol::EngineKind;
using protocol::ExecCtx;
using protocol::System;
using protocol::TxnEngine;
using txn::SquashReason;

constexpr std::size_t kNumVerbs = FaultConfig::kNumVerbs;

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

ClusterConfig
chaosCluster(std::uint32_t nodes = 2, std::uint32_t cores = 2)
{
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.coresPerNode = cores;
    cfg.slotsPerCore = 1;
    cfg.seed = 7;
    // Tight recovery knobs keep faulty simulated time short.
    cfg.tuning.retryTimeoutBase = us(4);
    cfg.tuning.retryTimeoutCap = us(32);
    cfg.tuning.maxCommitResends = 6;
    return cfg;
}

/** A System + engine + FaultPlan wired together like core::runOne. */
struct ChaosRig
{
    ClusterConfig cfg; // must outlive sys (System keeps a copy; the
                       // FaultPlan references sys.config)
    System sys;
    std::unique_ptr<TxnEngine> engine;
    std::unique_ptr<fault::FaultPlan> plan;

    ChaosRig(EngineKind kind, const ClusterConfig &config,
             std::uint64_t records)
        : cfg(config),
          sys(cfg, records,
              core::engineRecordBytes(kind, cfg.recordPayloadBytes)),
          engine(core::makeEngine(kind, sys, cfg.recordPayloadBytes))
    {
        if (sys.config.faults.enabled) {
            plan = std::make_unique<fault::FaultPlan>(sys.kernel,
                                                      sys.config);
            sys.network.setFaultInjector(plan.get());
            std::vector<std::vector<sim::ComputeResource *>> cores;
            for (auto &node : sys.nodes) {
                std::vector<sim::ComputeResource *> cs;
                for (auto &core : node->cores)
                    cs.push_back(core.get());
                cores.push_back(std::move(cs));
            }
            plan->scheduleNodeEvents(sys.network, cores);
        }
    }
};

sim::DetachedTask
runProg(TxnEngine &engine, ExecCtx ctx, txn::TxnProgram prog, int repeat)
{
    for (int i = 0; i < repeat; ++i)
        co_await engine.run(ctx, prog);
}

/** Every context increments every record once per round: the strongest
 *  cheap serializability check (a lost or doubly-applied update is
 *  visible in the final counter values). */
void
driveIncrements(ChaosRig &rig, const std::vector<std::uint64_t> &recs,
                int rounds)
{
    txn::TxnProgram prog;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        txn::Request r;
        r.record = recs[i];
        prog.requests.push_back(r);
        txn::Request w;
        w.record = recs[i];
        w.isWrite = true;
        w.derivedFromReadIdx = int(i);
        w.delta = 1;
        prog.requests.push_back(w);
    }
    for (NodeId n = 0; n < rig.cfg.numNodes; ++n)
        for (CoreId c = 0; c < rig.cfg.coresPerNode; ++c)
            runProg(*rig.engine, ExecCtx{n, c, 0}, prog, rounds);
}

void
expectNoLeakedState(System &sys)
{
    for (auto &node : sys.nodes) {
        EXPECT_EQ(node->lockBank.activeCount(), 0u)
            << "leaked Locking Buffer on node " << node->id;
        EXPECT_EQ(node->nic.remoteTxCount(), 0u)
            << "leaked NIC remote filters on node " << node->id;
        EXPECT_EQ(node->versions.lockedCount(), 0u)
            << "leaked record lock on node " << node->id;
        EXPECT_EQ(node->memory.llc().taggedTxCount(), 0u)
            << "leaked WrTX tag on node " << node->id;
    }
}

// --- per-verb chaos matrix ---------------------------------------------------

enum class ChaosMode
{
    DropFirst,  //!< deterministically drop the first sends of the verb
    Duplicate,  //!< duplicate every copy of the verb
    Delay,      //!< reorder-delay every copy of the verb
    RandomDrop, //!< drop 25% of the verb's copies
};

const char *
chaosModeTag(ChaosMode m)
{
    switch (m) {
      case ChaosMode::DropFirst:
        return "DropFirst";
      case ChaosMode::Duplicate:
        return "Dup";
      case ChaosMode::Delay:
        return "Delay";
      default:
        return "RandomDrop";
    }
}

struct ChaosCase
{
    EngineKind engine;
    MsgType verb;
    ChaosMode mode;
};

class ChaosMatrix : public ::testing::TestWithParam<ChaosCase>
{};

TEST_P(ChaosMatrix, TerminatesSerializablyWithoutLeaks)
{
    const auto p = GetParam();
    auto cfg = chaosCluster(2, 2);
    cfg.faults.enabled = true;
    const auto v = std::size_t(p.verb);
    switch (p.mode) {
      case ChaosMode::DropFirst:
        cfg.faults.dropFirst[v] = 3;
        break;
      case ChaosMode::Duplicate:
        cfg.faults.dupProb[v] = 1.0;
        break;
      case ChaosMode::Delay:
        cfg.faults.delayProb[v] = 1.0;
        break;
      case ChaosMode::RandomDrop:
        cfg.faults.dropProb[v] = 0.25;
        break;
    }

    constexpr std::uint64_t kRecords = 6;
    constexpr int kRounds = 8;
    ChaosRig rig(p.engine, cfg, kRecords);
    std::vector<std::uint64_t> recs;
    for (std::uint64_t r = 0; r < kRecords; ++r)
        recs.push_back(r);
    driveIncrements(rig, recs, kRounds);

    ASSERT_TRUE(rig.sys.kernel.run())
        << "event queue did not drain under faults";
    const std::uint64_t contexts =
        rig.cfg.numNodes * rig.cfg.coresPerNode;
    EXPECT_EQ(rig.engine->stats().committed, contexts * kRounds);
    for (auto r : recs)
        EXPECT_EQ(rig.sys.data.read(r),
                  std::int64_t(contexts) * kRounds)
            << "lost or replayed update on record " << r;
    expectNoLeakedState(rig.sys);
}

std::vector<ChaosCase>
chaosCases()
{
    std::vector<ChaosCase> cases;
    for (auto e : {EngineKind::Baseline, EngineKind::Hades,
                   EngineKind::HadesHybrid})
        for (std::size_t v = 0; v < kNumVerbs; ++v)
            for (auto m :
                 {ChaosMode::DropFirst, ChaosMode::Duplicate,
                  ChaosMode::Delay, ChaosMode::RandomDrop})
                cases.push_back({e, MsgType(v), m});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllVerbs, ChaosMatrix, ::testing::ValuesIn(chaosCases()),
    [](const auto &info) {
        const auto &c = info.param;
        return std::string(engineTag(c.engine)) + "_" +
               net::msgTypeName(c.verb) + "_" + chaosModeTag(c.mode);
    });

// --- acceptance: 1% drop on every verb through the public runner -------------

class OnePercentDrop : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(OnePercentDrop, RunnerCompletesAndSurfacesCounters)
{
    core::RunSpec spec;
    spec.engine = GetParam();
    spec.cluster.numNodes = 3;
    spec.cluster.coresPerNode = 2;
    spec.cluster.slotsPerCore = 1;
    spec.txnsPerContext = 30;
    spec.scaleKeys = 20'000;
    spec.mix = {core::MixEntry{workload::AppKind::Smallbank,
                               kvs::StoreKind::HashTable}};
    spec.cluster.faults.enabled = true;
    spec.cluster.faults.dropAll(0.01);

    auto res = core::runOne(spec);
    const std::uint64_t contexts = spec.cluster.numNodes *
                                   spec.cluster.coresPerNode *
                                   spec.cluster.slotsPerCore;
    EXPECT_EQ(res.stats.committed, contexts * spec.txnsPerContext);
    EXPECT_GT(res.faultDrops, 0u) << "no faults injected at 1% drop";
    EXPECT_GT(res.netRetransmits + res.stats.timeoutResends +
                  res.stats.reliableResends,
              0u)
        << "drops were injected but no recovery path fired";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, OnePercentDrop,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- determinism: same seeded faulty workload twice --------------------------

struct RunFingerprint
{
    std::uint64_t committed = 0;
    std::uint64_t attempts = 0;
    Tick simTime = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netBytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t dups = 0;
    std::vector<std::int64_t> db;

    bool
    operator==(const RunFingerprint &o) const
    {
        return committed == o.committed && attempts == o.attempts &&
               simTime == o.simTime && netMessages == o.netMessages &&
               netBytes == o.netBytes && drops == o.drops &&
               dups == o.dups && db == o.db;
    }
};

RunFingerprint
faultyFingerprint(EngineKind kind)
{
    auto cfg = chaosCluster(3, 2);
    cfg.faults.enabled = true;
    cfg.faults.dropAll(0.05);
    cfg.faults.dupAll(0.05);
    cfg.faults.delayAll(0.10);
    cfg.faults.nicStallProb = 0.02;

    constexpr std::uint64_t kRecords = 8;
    ChaosRig rig(kind, cfg, kRecords);
    std::vector<std::uint64_t> recs{0, 2, 5, 7};
    driveIncrements(rig, recs, 6);
    EXPECT_TRUE(rig.sys.kernel.run());

    RunFingerprint fp;
    fp.committed = rig.engine->stats().committed;
    fp.attempts = rig.engine->stats().attempts;
    fp.simTime = rig.sys.kernel.now();
    fp.netMessages = rig.sys.network.totalMessages();
    fp.netBytes = rig.sys.network.totalBytes();
    fp.drops = rig.plan->stats().totalDrops();
    fp.dups = rig.plan->stats().totalDuplicates();
    for (std::uint64_t r = 0; r < kRecords; ++r)
        fp.db.push_back(rig.sys.data.read(r));
    return fp;
}

class FaultDeterminism : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(FaultDeterminism, SameSeedSameRun)
{
    auto a = faultyFingerprint(GetParam());
    auto b = faultyFingerprint(GetParam());
    EXPECT_GT(a.drops + a.dups, 0u) << "chaos config injected nothing";
    EXPECT_TRUE(a == b)
        << "faulty run is not bit-reproducible under a fixed seed";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, FaultDeterminism,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- whole-node pause and crash windows --------------------------------------

class NodeOutage : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(NodeOutage, PauseAndCrashWindowsRecover)
{
    auto cfg = chaosCluster(3, 2);
    cfg.faults.enabled = true;
    cfg.tuning.retryTimeoutBase = us(4);
    cfg.tuning.retryTimeoutCap = us(16);
    cfg.tuning.maxCommitResends = 3;
    // Node 1 pauses, then node 2 fail-stops (message amnesia) and
    // restarts warm; peers must ride their timeouts through both.
    cfg.faults.nodeEvents.push_back({1, us(30), us(70), false});
    cfg.faults.nodeEvents.push_back({2, us(120), us(170), true});

    constexpr std::uint64_t kRecords = 6;
    constexpr int kRounds = 12;
    ChaosRig rig(GetParam(), cfg, kRecords);
    std::vector<std::uint64_t> recs{0, 1, 3, 5};
    driveIncrements(rig, recs, kRounds);

    ASSERT_TRUE(rig.sys.kernel.run());
    const std::uint64_t contexts =
        rig.cfg.numNodes * rig.cfg.coresPerNode;
    EXPECT_EQ(rig.engine->stats().committed, contexts * kRounds);
    for (auto r : recs)
        EXPECT_EQ(rig.sys.data.read(r),
                  std::int64_t(contexts) * kRounds);
    EXPECT_GT(rig.plan->stats().pausedDeferrals +
                  rig.plan->stats().crashDrops,
              0u)
        << "outage windows never intersected any traffic";
    expectNoLeakedState(rig.sys);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, NodeOutage,
                         ::testing::Values(EngineKind::Baseline,
                                           EngineKind::Hades,
                                           EngineKind::HadesHybrid),
                         [](const auto &info) {
                             return std::string(engineTag(info.param));
                         });

// --- replayed one-way handlers are idempotent --------------------------------

TEST(FaultReplay, DuplicatedCommitTrafficIsIdempotent)
{
    // Duplicate every protocol one-way verb: every Intend-to-commit,
    // Ack, Validation and Squash handler runs twice. A double-freed
    // locking buffer, double-counted Ack, or re-applied Validation
    // write would break the counters or leak state below.
    for (auto kind : {EngineKind::Hades, EngineKind::HadesHybrid,
                      EngineKind::Baseline}) {
        auto cfg = chaosCluster(3, 2);
        cfg.faults.enabled = true;
        cfg.faults.dupProb[std::size_t(MsgType::IntendToCommit)] = 1.0;
        cfg.faults.dupProb[std::size_t(MsgType::Ack)] = 1.0;
        cfg.faults.dupProb[std::size_t(MsgType::Validation)] = 1.0;
        cfg.faults.dupProb[std::size_t(MsgType::Squash)] = 1.0;
        cfg.faults.dupProb[std::size_t(MsgType::RdmaWrite)] = 1.0;

        constexpr std::uint64_t kRecords = 6;
        constexpr int kRounds = 8;
        ChaosRig rig(kind, cfg, kRecords);
        std::vector<std::uint64_t> recs{0, 1, 4};
        driveIncrements(rig, recs, kRounds);

        ASSERT_TRUE(rig.sys.kernel.run()) << engineTag(kind);
        const std::uint64_t contexts =
            rig.cfg.numNodes * rig.cfg.coresPerNode;
        EXPECT_EQ(rig.engine->stats().committed, contexts * kRounds)
            << engineTag(kind);
        for (auto r : recs)
            EXPECT_EQ(rig.sys.data.read(r),
                      std::int64_t(contexts) * kRounds)
                << engineTag(kind) << " replayed a write on record "
                << r;
        expectNoLeakedState(rig.sys);
    }
}

// --- network-level fault accounting ------------------------------------------

struct StubInjector : net::FaultInjector
{
    net::FaultDecision decision;
    int dropNext = 0; //!< drop this many copies, then deliver clean

    net::FaultDecision
    judge(MsgType, NodeId, NodeId) override
    {
        if (dropNext > 0) {
            --dropNext;
            net::FaultDecision d;
            d.drop = true;
            return d;
        }
        return decision;
    }
};

sim::DetachedTask
oneRoundTrip(net::Network &net, bool &done)
{
    co_await net.roundTrip(MsgType::RdmaRead, 0, 1, 24, 64);
    done = true;
}

TEST(FaultNetwork, DuplicatedPostAccountsOnceRunsTwice)
{
    ClusterConfig cfg = chaosCluster(2, 1);
    sim::Kernel kernel;
    net::Network net(kernel, cfg);
    StubInjector inj;
    inj.decision.duplicate = true;
    inj.decision.duplicateDelay = ns(700);
    net.setFaultInjector(&inj);

    int runs = 0;
    net.post(MsgType::Validation, 0, 1, 64, [&] { runs += 1; });
    ASSERT_TRUE(kernel.run());
    EXPECT_EQ(runs, 2) << "duplicate copy was not delivered";
    EXPECT_EQ(net.messageCount(MsgType::Validation), 1u)
        << "a duplicated copy must not double-count message stats";
}

TEST(FaultNetwork, DroppedPostStillAccountsTheSend)
{
    ClusterConfig cfg = chaosCluster(2, 1);
    sim::Kernel kernel;
    net::Network net(kernel, cfg);
    StubInjector inj;
    inj.dropNext = 1;
    net.setFaultInjector(&inj);

    int runs = 0;
    net.post(MsgType::Squash, 0, 1, 32, [&] { runs += 1; });
    ASSERT_TRUE(kernel.run());
    EXPECT_EQ(runs, 0) << "one-way posts carry no NIC reliability";
    EXPECT_EQ(net.messageCount(MsgType::Squash), 1u);
}

TEST(FaultNetwork, RoundTripRetransmitsThroughDrops)
{
    ClusterConfig cfg = chaosCluster(2, 1);
    cfg.tuning.retryTimeoutBase = us(4);
    cfg.tuning.retryTimeoutCap = us(16);
    sim::Kernel kernel;
    net::Network net(kernel, cfg);
    StubInjector inj;
    inj.dropNext = 2; // lose the first two request copies
    net.setFaultInjector(&inj);

    bool done = false;
    oneRoundTrip(net, done);
    ASSERT_TRUE(kernel.run());
    EXPECT_TRUE(done) << "RC retransmission never completed";
    EXPECT_EQ(net.retransmits(MsgType::RdmaRead), 2u);
    EXPECT_EQ(net.totalRetransmits(), 2u);
}

} // namespace
} // namespace hades
