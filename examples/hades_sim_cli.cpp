/**
 * @file
 * Full command-line driver: run any single configuration of the
 * simulator and print a complete report. This is the "swiss-army"
 * entry point for exploring the design space beyond the canned benches.
 *
 * Examples:
 *   hades_sim_cli --engine hades --app tpcc --nodes 8 --cores 10
 *   hades_sim_cli --engine baseline --app ycsb-a --store btree \
 *                 --net-rt-us 1 --txns 200
 *   hades_sim_cli --engine hades --app smallbank --replication 2
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/runner.hh"
#include "sweep.hh"

namespace
{

using namespace hades;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --engine baseline|hades-h|hades   (default hades)\n"
        "  --app ycsb-a|ycsb-b|ycsb-e|tpcc|tatp|smallbank\n"
        "  --store ht|map|btree|b+tree       (default ht; YCSB only)\n"
        "  --nodes N      --cores C          --slots m\n"
        "  --txns per-context commits        (default 100)\n"
        "  --keys table scale                (default 150000)\n"
        "  --net-rt-us RT                    (default 2)\n"
        "  --local-frac F                    (0..1; default uniform)\n"
        "  --replication K                   (default 0 = off)\n"
        "  --seed S\n"
        "  --fault-drop P                    per-message loss prob\n"
        "  --fault-dup P                     duplicate-delivery prob\n"
        "  --fault-delay P                   reorder-delay prob\n"
        "  --fault-corrupt P                 payload-corruption prob\n"
        "                                    (NIC CRC drops the copy)\n"
        "  --fault-seed S                    fault RNG seed\n"
        "  --crash-forever N@T               node N permanently fail-\n"
        "                                    stops at T microseconds\n"
        "  --partition A-B@T1:T2             drop A->B traffic in\n"
        "                                    [T1,T2) us (directed)\n"
        "  --partition-sym A-B@T1:T2         same, both directions\n"
        "  --isolate N@T1:T2                 cut node N from everyone\n"
        "                                    for [T1,T2) us\n"
        "  --slow-nic N:xK@T1:T2             grey fault: traffic\n"
        "                                    touching node N runs xK\n"
        "                                    slower in [T1,T2) us\n"
        "  --slow-link A-B:xK@T1:T2          inflate A->B latency xK\n"
        "  --slow-link-sym A-B:xK@T1:T2      same, both directions\n"
        "  --straggle-core N:xK@T1:T2        node N's cores lose a\n"
        "                                    1-1/K duty cycle\n"
        "  --slo                             latency-SLO tracker +\n"
        "                                    hedged remote reads\n"
        "                                    (implies faults)\n"
        "  --no-hedge                        SLO tracker only, no\n"
        "                                    hedged round trips\n"
        "  --hedge-delay-pct P               hedge fires at P%% of the\n"
        "                                    net RT (default 150)\n"
        "  --quarantine                      CM drains sustained-\n"
        "                                    degraded nodes (implies\n"
        "                                    --slo --recovery and\n"
        "                                    replication)\n"
        "  --admission                       token-bucket admission\n"
        "                                    control + retry budgets\n"
        "  --admission-cap N                 bucket capacity\n"
        "  --admission-refill N              tokens per refill tick\n"
        "  --admission-depth N               in-flight shed bound\n"
        "                                    (0 = tokens only)\n"
        "  --retry-budget-pct P              retries granted per 100\n"
        "                                    admitted txns\n"
        "  --recovery                        leases + view changes +\n"
        "                                    backup promotion\n"
        "  --join N@T                        spare node N joins at T\n"
        "                                    microseconds (implies\n"
        "                                    --recovery; needs\n"
        "                                    --replication and\n"
        "                                    --initial-members)\n"
        "  --drain N@T                       planned-drain node N at T\n"
        "                                    microseconds (implies\n"
        "                                    --recovery + replication)\n"
        "  --initial-members M               nodes M..N-1 start as\n"
        "                                    spares (join targets)\n"
        "  --migrate-batch N                 records per migration\n"
        "                                    batch (default 32)\n"
        "  --migrate-interval-us T           batch throttle interval\n"
        "  --retry-base-us T --retry-cap-us T  retransmit/resend RTO\n"
        "  --max-commit-resends N            commit Ack-timeout budget\n"
        "                                    (0 = unbounded)\n"
        "  --lease-interval-us T --lease-timeout-us T\n"
        "  --backoff-cycles N                squash-retry backoff base\n"
        "  --max-squashes N                  lock-mode fallback bound\n"
        "  --audit | --no-audit              correctness auditor\n"
        "                                    (default: on in debug "
        "builds)\n"
        "  --shards N                        kernel shard count\n"
        "                                    (default 1 = serial;\n"
        "                                    any N is bit-identical)\n"
        "  --shards-det                      force the deterministic\n"
        "                                    (non-threaded) executor\n"
        "  --all-engines                     run the config under all\n"
        "                                    three engines, in parallel\n"
        "  --jobs N                          sweep worker threads\n"
        "  --smoke                           shrink to a smoke run\n"
        "  --json PATH                       hades-sweep-v1 report\n",
        argv0);
    std::exit(1);
}

protocol::EngineKind
parseEngine(const std::string &s, const char *argv0)
{
    if (s == "baseline")
        return protocol::EngineKind::Baseline;
    if (s == "hades-h" || s == "hybrid")
        return protocol::EngineKind::HadesHybrid;
    if (s == "hades")
        return protocol::EngineKind::Hades;
    usage(argv0);
}

workload::AppKind
parseApp(const std::string &s, const char *argv0)
{
    if (s == "ycsb-a")
        return workload::AppKind::YcsbA;
    if (s == "ycsb-b")
        return workload::AppKind::YcsbB;
    if (s == "ycsb-e")
        return workload::AppKind::YcsbE;
    if (s == "tpcc")
        return workload::AppKind::Tpcc;
    if (s == "tatp")
        return workload::AppKind::Tatp;
    if (s == "smallbank")
        return workload::AppKind::Smallbank;
    usage(argv0);
}

kvs::StoreKind
parseStore(const std::string &s, const char *argv0)
{
    if (s == "ht")
        return kvs::StoreKind::HashTable;
    if (s == "map")
        return kvs::StoreKind::Map;
    if (s == "btree")
        return kvs::StoreKind::BTree;
    if (s == "b+tree" || s == "bptree")
        return kvs::StoreKind::BPlusTree;
    usage(argv0);
}

/** Parse "T1:T2" (microseconds) into a [at, until) window. */
bool
parseWindow(const std::string &s, Tick &at, Tick &until)
{
    auto colon = s.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= s.size())
        return false;
    at = us(std::atoll(s.substr(0, colon).c_str()));
    until = us(std::atoll(s.substr(colon + 1).c_str()));
    return until > at;
}

/** Parse "A-B@T1:T2" into a one-edge partition window. */
bool
parsePartition(const std::string &v, bool symmetric,
               FaultConfig::PartitionWindow &w)
{
    auto dash = v.find('-');
    auto sep = v.find('@');
    if (dash == std::string::npos || sep == std::string::npos ||
        dash == 0 || dash + 1 >= sep || sep + 1 >= v.size())
        return false;
    w = FaultConfig::PartitionWindow{};
    w.edges.emplace_back(
        NodeId(std::atoi(v.substr(0, dash).c_str())),
        NodeId(std::atoi(v.substr(dash + 1, sep - dash - 1).c_str())));
    w.symmetric = symmetric;
    return parseWindow(v.substr(sep + 1), w.at, w.until);
}

/** Parse the ":xK@T1:T2" tail shared by every grey-fault flag:
 *  factor (xK, K possibly fractional -> integer percent) + window. */
bool
parseGreyTail(const std::string &v, std::size_t colon,
              FaultConfig::GreyEvent &g)
{
    auto sep = v.find('@', colon);
    if (sep == std::string::npos || colon + 2 >= sep ||
        v[colon + 1] != 'x' || sep + 1 >= v.size())
        return false;
    double factor =
        std::atof(v.substr(colon + 2, sep - colon - 2).c_str());
    g.factorPct = std::uint32_t(factor * 100.0 + 0.5);
    return g.factorPct > 100 &&
           parseWindow(v.substr(sep + 1), g.at, g.until);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hades;

    auto &sweep = bench::Sweep::instance();
    sweep.parseArgs(&argc, argv);

    core::RunSpec spec;
    spec.engine = protocol::EngineKind::Hades;
    spec.txnsPerContext = 100;
    spec.scaleKeys = 150'000;
    core::MixEntry entry{workload::AppKind::YcsbA,
                         kvs::StoreKind::HashTable};
    bool all_engines = false;
    // --isolate requests, materialized once numNodes is final.
    struct Isolate
    {
        NodeId node;
        Tick at, until;
    };
    std::vector<Isolate> isolates;

    for (int i = 1; i < argc; ++i) {
        std::string opt = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (opt == "--engine")
            spec.engine = parseEngine(next(), argv[0]);
        else if (opt == "--app")
            entry.app = parseApp(next(), argv[0]);
        else if (opt == "--store")
            entry.store = parseStore(next(), argv[0]);
        else if (opt == "--nodes")
            spec.cluster.numNodes =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--cores")
            spec.cluster.coresPerNode =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--slots")
            spec.cluster.slotsPerCore =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--txns")
            spec.txnsPerContext =
                std::uint64_t(std::atoll(next().c_str()));
        else if (opt == "--keys")
            spec.scaleKeys = std::uint64_t(std::atoll(next().c_str()));
        else if (opt == "--net-rt-us")
            spec.cluster.netRoundTrip =
                us(std::atoll(next().c_str()));
        else if (opt == "--local-frac")
            spec.cluster.forcedLocalFraction =
                std::atof(next().c_str());
        else if (opt == "--replication")
            spec.replication.degree =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--seed")
            spec.cluster.seed = std::uint64_t(std::atoll(next().c_str()));
        else if (opt == "--fault-drop") {
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.dropAll(std::atof(next().c_str()));
        } else if (opt == "--fault-dup") {
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.dupAll(std::atof(next().c_str()));
        } else if (opt == "--fault-delay") {
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.delayAll(std::atof(next().c_str()));
        } else if (opt == "--fault-corrupt") {
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.corruptAll(std::atof(next().c_str()));
        } else if (opt == "--partition" || opt == "--partition-sym") {
            FaultConfig::PartitionWindow w;
            if (!parsePartition(next(), opt == "--partition-sym", w))
                usage(argv[0]);
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.partitions.push_back(w);
        } else if (opt == "--isolate") {
            std::string v = next();
            auto sep = v.find('@');
            Tick at = 0, until = 0;
            if (sep == std::string::npos || sep == 0 ||
                sep + 1 >= v.size() ||
                !parseWindow(v.substr(sep + 1), at, until))
                usage(argv[0]);
            spec.cluster.faults.enabled = true;
            isolates.push_back(
                {NodeId(std::atoi(v.substr(0, sep).c_str())), at,
                 until});
        } else if (opt == "--slow-nic" || opt == "--straggle-core") {
            std::string v = next();
            auto colon = v.find(':');
            FaultConfig::GreyEvent g;
            g.kind = opt == "--slow-nic"
                         ? FaultConfig::GreyEvent::Kind::SlowNic
                         : FaultConfig::GreyEvent::Kind::StraggleCore;
            if (colon == std::string::npos || colon == 0 ||
                !parseGreyTail(v, colon, g))
                usage(argv[0]);
            g.node = NodeId(std::atoi(v.substr(0, colon).c_str()));
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.greyEvents.push_back(g);
        } else if (opt == "--slow-link" || opt == "--slow-link-sym") {
            std::string v = next();
            auto dash = v.find('-');
            FaultConfig::GreyEvent g;
            g.kind = FaultConfig::GreyEvent::Kind::SlowLink;
            g.symmetric = opt == "--slow-link-sym";
            auto colon =
                dash == std::string::npos ? dash : v.find(':', dash);
            if (dash == std::string::npos || dash == 0 ||
                colon == std::string::npos || dash + 1 >= colon ||
                !parseGreyTail(v, colon, g))
                usage(argv[0]);
            g.node = NodeId(std::atoi(v.substr(0, dash).c_str()));
            g.dst = NodeId(
                std::atoi(v.substr(dash + 1, colon - dash - 1).c_str()));
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.greyEvents.push_back(g);
        } else if (opt == "--slo")
            spec.cluster.slo.enabled = true;
        else if (opt == "--no-hedge")
            spec.cluster.slo.hedgeReads = false;
        else if (opt == "--hedge-delay-pct")
            spec.cluster.slo.hedgeDelayPct =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--quarantine") {
            spec.cluster.slo.enabled = true;
            spec.cluster.slo.quarantine = true;
        } else if (opt == "--admission")
            spec.cluster.admission.enabled = true;
        else if (opt == "--admission-cap")
            spec.cluster.admission.bucketCap =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--admission-refill")
            spec.cluster.admission.refillTokens =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--admission-depth")
            spec.cluster.admission.maxInFlight =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--retry-budget-pct")
            spec.cluster.admission.retryBudgetPct =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--fault-seed")
            spec.cluster.faults.seed =
                std::uint64_t(std::atoll(next().c_str()));
        else if (opt == "--crash-forever") {
            std::string v = next();
            auto at = v.find('@');
            if (at == std::string::npos || at == 0 ||
                at + 1 >= v.size())
                usage(argv[0]);
            FaultConfig::NodeEvent ev;
            ev.node = NodeId(std::atoi(v.substr(0, at).c_str()));
            ev.at = us(std::atoll(v.substr(at + 1).c_str()));
            ev.crash = true;
            ev.forever = true;
            spec.cluster.faults.enabled = true;
            spec.cluster.faults.nodeEvents.push_back(ev);
        } else if (opt == "--join" || opt == "--drain") {
            std::string v = next();
            auto at = v.find('@');
            if (at == std::string::npos || at == 0 ||
                at + 1 >= v.size())
                usage(argv[0]);
            MembershipConfig::NodeEventAt ev;
            ev.node = NodeId(std::atoi(v.substr(0, at).c_str()));
            ev.at = us(std::atoll(v.substr(at + 1).c_str()));
            if (opt == "--join")
                spec.cluster.membership.joins.push_back(ev);
            else
                spec.cluster.membership.drains.push_back(ev);
        } else if (opt == "--initial-members")
            spec.cluster.membership.initialMembers =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--migrate-batch")
            spec.cluster.membership.migrateBatchRecords =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--migrate-interval-us")
            spec.cluster.membership.migrateBatchInterval =
                us(std::atoll(next().c_str()));
        else if (opt == "--recovery")
            spec.cluster.recovery.enabled = true;
        else if (opt == "--retry-base-us")
            spec.cluster.tuning.retryTimeoutBase =
                us(std::atoll(next().c_str()));
        else if (opt == "--retry-cap-us")
            spec.cluster.tuning.retryTimeoutCap =
                us(std::atoll(next().c_str()));
        else if (opt == "--max-commit-resends")
            spec.cluster.tuning.maxCommitResends =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--lease-interval-us")
            spec.cluster.tuning.leaseInterval =
                us(std::atoll(next().c_str()));
        else if (opt == "--lease-timeout-us")
            spec.cluster.tuning.leaseTimeout =
                us(std::atoll(next().c_str()));
        else if (opt == "--backoff-cycles")
            spec.cluster.tuning.retryBackoffBaseCycles =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--max-squashes")
            spec.cluster.tuning.maxSquashesBeforeLockMode =
                std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--shards")
            spec.shards = std::uint32_t(std::atoi(next().c_str()));
        else if (opt == "--shards-det")
            spec.cluster.sharding.forceDeterministic = true;
        else if (opt == "--audit")
            spec.audit = true;
        else if (opt == "--no-audit")
            spec.audit = false;
        else if (opt == "--all-engines")
            all_engines = true;
        else
            usage(argv[0]);
    }
    if (spec.cluster.numNodes < 2 || spec.cluster.coresPerNode < 1 ||
        spec.cluster.slotsPerCore < 1)
        usage(argv[0]);
    if (spec.cluster.membership.enabled()) {
        // Membership rides the recovery substrate (epochs, fencing,
        // squash resolution) and needs replication for image resync.
        spec.cluster.recovery.enabled = true;
        if (!spec.replication.enabled())
            spec.replication.degree = 1;
        for (const auto &j : spec.cluster.membership.joins)
            if (j.node >= spec.cluster.numNodes)
                usage(argv[0]);
        for (const auto &d : spec.cluster.membership.drains)
            if (d.node >= spec.cluster.numNodes)
                usage(argv[0]);
    }
    if (spec.cluster.slo.enabled) {
        // The SLO tracker samples RTTs off the faulty-NIC path, so it
        // (and hedging) require the fault layer even with no faults
        // configured.
        spec.cluster.faults.enabled = true;
        if (spec.cluster.slo.quarantine) {
            // Quarantine drains a live node through the elastic-
            // membership path: recovery substrate + replicas needed.
            spec.cluster.recovery.enabled = true;
            if (!spec.replication.enabled())
                spec.replication.degree = 1;
        }
    }
    for (const auto &g : spec.cluster.faults.greyEvents) {
        if (g.node >= spec.cluster.numNodes)
            usage(argv[0]);
        if (g.kind == FaultConfig::GreyEvent::Kind::SlowLink &&
            (g.dst >= spec.cluster.numNodes || g.dst == g.node))
            usage(argv[0]);
    }
    for (const auto &iso : isolates) {
        if (iso.node >= spec.cluster.numNodes)
            usage(argv[0]);
        spec.cluster.faults.partitions.push_back(
            FaultConfig::PartitionWindow::isolate(
                iso.node, spec.cluster.numNodes, iso.at, iso.until));
    }
    spec.mix = {entry};
    if (sweep.smoke())
        spec = bench::Sweep::applySmoke(spec);

    auto keyFor = [](protocol::EngineKind e) {
        return std::string("cli/") + protocol::engineKindName(e);
    };

    if (all_engines) {
        const protocol::EngineKind engines[] = {
            protocol::EngineKind::Baseline,
            protocol::EngineKind::HadesHybrid,
            protocol::EngineKind::Hades,
        };
        for (auto e : engines) {
            core::RunSpec s = spec;
            s.engine = e;
            sweep.add(keyFor(e), s);
        }
        sweep.runAll();
        std::printf("%-10s %14s %12s %12s %12s\n", "engine", "txn/s",
                    "mean lat", "p95 lat", "vs Baseline");
        double base = 0;
        for (auto e : engines) {
            core::RunSpec s = spec;
            s.engine = e;
            const auto &r = sweep.get(keyFor(e), s);
            if (e == protocol::EngineKind::Baseline)
                base = r.throughputTps;
            std::printf("%-10s %14.0f %10.2fus %10.2fus %11.2fx\n",
                        protocol::engineKindName(e), r.throughputTps,
                        r.meanLatencyUs, r.p95LatencyUs,
                        r.throughputTps / base);
        }
        sweep.finish("hades_sim_cli");
        return 0;
    }

    sweep.add(keyFor(spec.engine), spec);
    sweep.runAll();
    const auto &res = sweep.get(keyFor(spec.engine), spec);

    std::printf("workload      %s\n", res.label.c_str());
    std::printf("engine        %s\n",
                protocol::engineKindName(spec.engine));
    std::printf("cluster       N=%u C=%u m=%u, net RT %lldus\n",
                spec.cluster.numNodes, spec.cluster.coresPerNode,
                spec.cluster.slotsPerCore,
                (long long)(spec.cluster.netRoundTrip / kMicrosecond));
    std::printf("committed     %lu txns in %.3f ms simulated "
                "(%lu attempts)\n",
                (unsigned long)res.stats.committed,
                double(res.simTime) / double(kMillisecond),
                (unsigned long)res.stats.attempts);
    std::printf("throughput    %.0f txn/s\n", res.throughputTps);
    std::printf("latency       mean %.2fus  p50 %.2fus  p95 %.2fus\n",
                res.meanLatencyUs, res.p50LatencyUs, res.p95LatencyUs);
    std::printf("phases        exec %.2fus  validation %.2fus  "
                "commit %.2fus\n",
                res.execUs, res.validationUs, res.commitUs);
    std::printf("squashes      %.2f per committed txn\n",
                res.stats.committed
                    ? double(res.stats.totalSquashes()) /
                          double(res.stats.committed)
                    : 0.0);
    for (std::size_t i = 0;
         i < std::size_t(txn::SquashReason::NumReasons); ++i) {
        if (res.stats.squashes[i])
            std::printf("  %-22s %lu\n",
                        txn::squashReasonName(txn::SquashReason(i)),
                        (unsigned long)res.stats.squashes[i]);
    }
    if (res.stats.bfConflictChecks)
        std::printf("bloom fp      %.4f%% of conflict checks\n",
                    100.0 * res.bfFalsePositiveRate);

    // Every scalar counter, one line per layer; a layer whose counters
    // are all zero is left out.
    constexpr auto kLayers = std::size_t(txn::CounterLayer::NumLayers);
    std::array<std::string, kLayers> lines;
    std::array<bool, kLayers> nonzero{};
    auto counter = [&](const txn::CounterInfo &c, auto v) {
        std::string &line = lines[std::size_t(c.layer)];
        const std::string tag = std::string(" ") + c.key + "=";
        if (line.find(tag) != std::string::npos)
            return; // RunResult repeats retry_budget_deferrals
        if constexpr (std::is_same_v<decltype(v), bool>)
            line += tag + (v ? "true" : "false");
        else
            line += tag + std::to_string(v);
        nonzero[std::size_t(c.layer)] |= v != 0;
    };
    txn::forEachStatsCounter(res.stats, counter);
    core::forEachResultCounter(res, counter);
    for (std::size_t i = 0; i < kLayers; ++i)
        if (nonzero[i])
            std::printf("%-13s%s\n",
                        txn::counterLayerName(txn::CounterLayer(i)),
                        lines[i].c_str());
    sweep.finish("hades_sim_cli");
    return 0;
}
