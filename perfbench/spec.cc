#include "spec.hh"

#include <chrono>
#include <cstdio>

#include "common/log.hh"

namespace hades::perfbench
{

namespace
{

/** Size of one workload; everything else is fixed in makeSpec(). */
struct Shape
{
    std::string_view name;
    workload::AppKind app;
    std::uint32_t nodes;
    std::uint64_t txnsPerContext;
    std::uint64_t scaleKeys;
};

constexpr Shape kShapes[] = {
    {"tpcc-local", workload::AppKind::Tpcc, 20, 20, 100'000},
    {"tatp-uniform", workload::AppKind::Tatp, 40, 60, 2'000},
    {"ycsb-a-grey", workload::AppKind::YcsbA, 10, 30, 50'000},
};

const Shape *
findShape(std::string_view name)
{
    for (const auto &s : kShapes)
        if (s.name == name)
            return &s;
    return nullptr;
}

} // namespace

const char *
engineTag(protocol::EngineKind engine)
{
    switch (engine) {
      case protocol::EngineKind::Baseline:
        return "baseline";
      case protocol::EngineKind::HadesHybrid:
        return "hades_h";
      case protocol::EngineKind::Hades:
        return "hades";
    }
    panic("unknown engine kind");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &s : kShapes)
            v.emplace_back(s.name);
        return v;
    }();
    return names;
}

bool
knownWorkload(std::string_view name)
{
    return findShape(name) != nullptr;
}

core::RunSpec
makeSpec(std::string_view workload, protocol::EngineKind engine,
         std::uint64_t seed)
{
    const Shape *shape = findShape(workload);
    always_assert(shape != nullptr, "unknown workload");

    core::RunSpec spec;
    spec.engine = engine;
    spec.mix = {core::MixEntry{shape->app, kvs::StoreKind::HashTable}};
    spec.cluster.numNodes = shape->nodes;
    spec.cluster.coresPerNode = 5;
    spec.cluster.slotsPerCore = 2;
    spec.cluster.seed = seed;
    spec.txnsPerContext = shape->txnsPerContext;
    spec.scaleKeys = shape->scaleKeys;
    // The default lock-mode fallback stays on: it is what users hit,
    // and on the threaded executor it forces the serial re-run that
    // sim.<e>.serial_rerun reports.
    spec.audit = false;

    if (workload == "tpcc-local") {
        spec.cluster.forcedLocalFraction = 1.0;
        spec.shards = 4;
    } else if (workload == "tatp-uniform") {
        spec.shards = 4;
    } else {
        // ycsb-a-grey: node 1's NIC runs 6x slow for the whole run,
        // with every grey-failure mitigation armed and audited. Each
        // of these features keeps the run on the serial oracle.
        spec.shards = 1;
        spec.replication.degree = 2;
        spec.cluster.tuning.retryTimeoutBase = us(4);
        spec.cluster.tuning.retryTimeoutCap = us(32);
        FaultConfig::GreyEvent grey;
        grey.kind = FaultConfig::GreyEvent::Kind::SlowNic;
        grey.node = NodeId(1);
        grey.factorPct = 600;
        grey.at = 0;
        grey.until = kTickMax;
        spec.cluster.faults.enabled = true;
        spec.cluster.faults.greyEvents.push_back(grey);
        spec.cluster.slo.enabled = true;
        spec.cluster.admission.enabled = true;
        spec.cluster.admission.maxInFlight = 3;
        spec.cluster.admission.retryBudgetPct = 25;
        // Recovery (leases) stays off, so only HADES stages replica
        // images and divergentRecords is not computed: with it on, the
        // Baseline's replica staging panics on some inputs ("conflicting
        // durable images with equal seq", cluster seed 36).
        spec.audit = true;
    }
    return spec;
}

std::uint64_t
expectedCommits(const core::RunSpec &spec)
{
    return std::uint64_t{spec.cluster.numNodes} *
           spec.cluster.contextsPerNode() * spec.txnsPerContext;
}

std::string
checkRun(const core::RunSpec &spec, const core::RunResult &res,
         std::uint64_t expect_extra)
{
    const std::uint64_t want = expectedCommits(spec) + expect_extra;
    if (res.stats.committed != want)
        return "committed " + std::to_string(res.stats.committed) +
               " transactions, expected " + std::to_string(want);
    if (spec.audit && (!res.audited || res.auditedCommits != want))
        return "audit did not cover every commit";
    if (res.divergentRecords != 0)
        return std::to_string(res.divergentRecords) +
               " backup records diverge from ground truth";
    return {};
}

EngineRun
runChecked(const core::RunSpec &spec, std::uint64_t expect_extra)
{
    using Clock = std::chrono::steady_clock;
    EngineRun run;
    run.engine = spec.engine;
    const auto t0 = Clock::now();
    run.result = core::runOne(spec);
    run.hostSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const std::string why = checkRun(spec, run.result, expect_extra);
    run.correct = why.empty();
    if (!run.correct)
        std::fprintf(stderr, "perfbench: %s run failed its check: %s\n",
                     engineTag(spec.engine), why.c_str());
    return run;
}

} // namespace hades::perfbench
