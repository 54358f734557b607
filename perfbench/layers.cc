#include "layers.hh"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "audit/auditor.hh"
#include "bloom/bloom_filter.hh"
#include "bloom/locking_buffer.hh"
#include "bloom/split_write_bloom.hh"
#include "core/result_hash.hh"
#include "fault/fault_plan.hh"
#include "mem/hierarchy.hh"
#include "net/hades_nic.hh"
#include "net/network.hh"
#include "net/slo_tracker.hh"
#include "protocol/system.hh"
#include "sim/task.hh"
#include "spec.hh"

namespace hades::perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

/** Transactions drawn from the generator for the microbenchmarks. */
constexpr std::size_t kSampleTxns = 2000;
/** Kernel events per ping-chain microbenchmark iteration. */
constexpr std::uint64_t kChainEvents = 200'000;
/** Minimum host seconds google-benchmark spends per microbenchmark. */
constexpr double kMinTime = 0.1;
/** Trials behind each core.setup_ms.* median. */
constexpr int kSetupTrials = 3;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Inputs: the workload's own transactions, as the microbenchmarks see them
// ---------------------------------------------------------------------------

/** One cache-line access of a sampled transaction. */
struct LineAccess
{
    NodeId coord = 0; //!< coordinator node
    NodeId home = 0;  //!< node homing the line
    Addr line = 0;
    bool isWrite = false;
};

/** Transactions drawn from the workload's generator with the run seed,
 *  flattened into the streams each layer consumes. */
struct Inputs
{
    ClusterConfig cfg;
    std::unique_ptr<workload::WorkloadGenerator> gen;
    std::unique_ptr<mem::Placement> placement;
    std::vector<txn::TxnProgram> txns;
    /** Line accesses of each sampled transaction, in request order. */
    std::vector<std::vector<LineAccess>> lines;
    /** Every line access of every sampled transaction. */
    std::vector<LineAccess> stream;
    /** (coordinator, home) of every remote access; neighbour pairs
     *  when the workload is all-local, so the network layer still has
     *  traffic to time. */
    std::vector<std::pair<NodeId, NodeId>> remotePairs;
    /** Mean distinct remote homes per transaction. */
    double remoteHomesPerTxn = 0;
};

/** The generator runOne() builds for @p spec's single mix entry. */
std::unique_ptr<workload::WorkloadGenerator>
makeGenerator(const core::RunSpec &spec)
{
    workload::WorkloadConfig wcfg;
    wcfg.numNodes = spec.cluster.numNodes;
    wcfg.forcedLocalFraction = spec.cluster.forcedLocalFraction;
    wcfg.scaleKeys = spec.scaleKeys;
    return workload::makeWorkload(spec.mix[0].app, spec.mix[0].store,
                                  wcfg);
}

std::unique_ptr<Inputs>
drawInputs(const core::RunSpec &spec)
{
    auto in = std::make_unique<Inputs>();
    in->cfg = spec.cluster;
    in->gen = makeGenerator(spec);
    in->placement = std::make_unique<mem::Placement>(
        spec.cluster.numNodes, in->gen->numRecords(),
        core::engineRecordBytes(spec.engine,
                                spec.cluster.recordPayloadBytes),
        spec.cluster.numNodes);
    in->gen->bind(*in->placement, 0);

    Rng rng{spec.cluster.seed};
    std::uint64_t remote_homes = 0;
    for (std::size_t i = 0; i < kSampleTxns; ++i) {
        const NodeId coord = NodeId(i % spec.cluster.numNodes);
        txn::TxnProgram prog = in->gen->next(rng, coord);
        std::vector<LineAccess> acc;
        std::set<NodeId> homes;
        for (const auto &req : prog.requests) {
            const NodeId home = in->placement->homeOf(req.record);
            const std::uint32_t payload =
                req.recordPayloadBytes ? req.recordPayloadBytes
                                       : spec.cluster.recordPayloadBytes;
            const std::uint32_t bytes =
                req.sizeBytes ? req.sizeBytes : payload;
            const AddrRange range{
                in->placement->addrOf(req.record) + req.offsetBytes,
                bytes};
            for (Addr l = range.firstLine(); l <= range.lastLine();
                 l += kCacheLineBytes)
                acc.push_back({coord, home, l, req.isWrite});
            if (home != coord) {
                homes.insert(home);
                in->remotePairs.emplace_back(coord, home);
            }
        }
        remote_homes += homes.size();
        in->stream.insert(in->stream.end(), acc.begin(), acc.end());
        in->lines.push_back(std::move(acc));
        in->txns.push_back(std::move(prog));
    }
    in->remoteHomesPerTxn = double(remote_homes) / double(kSampleTxns);
    if (in->remotePairs.empty()) {
        for (NodeId n = 0; n < spec.cluster.numNodes; ++n)
            in->remotePairs.emplace_back(
                n, NodeId((n + 1) % spec.cluster.numNodes));
    }
    return in;
}

// ---------------------------------------------------------------------------
// Microbenchmarks
// ---------------------------------------------------------------------------

/** Resume the awaiting coroutine on @p node after @p delay. */
struct ResumeOn
{
    sim::Kernel &kernel;
    NodeId node;
    Tick delay;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        kernel.scheduleAs(node, delay, [h] { h.resume(); });
    }

    void await_resume() const noexcept {}
};

/** One link of the ping chain: @p hops timed hops on @p node's lane,
 *  every fourth one crossing to @p peer when @p cross > 0 (the cross
 *  hop waits @p cross, at least the window, as a message would). */
sim::DetachedTask
pingChain(sim::Kernel &k, NodeId node, NodeId peer, std::uint64_t hops,
          Tick cross)
{
    co_await ResumeOn{k, node, 0};
    for (std::uint64_t i = 0; i < hops; ++i) {
        if (cross > 0 && i % 4 == 3) {
            std::swap(node, peer);
            co_await ResumeOn{k, node, cross};
        } else {
            co_await sim::Delay{k, Tick(1 + i % 7) * kNanosecond};
        }
    }
}

/** Kernel schedule->run on one ping chain per hardware context of the
 *  workload; @p lanes > 1 runs them on threaded lanes. */
void
benchPingChain(benchmark::State &state, const Inputs &in,
               std::uint32_t lanes)
{
    const std::uint32_t nodes = in.cfg.numNodes;
    const std::uint64_t chains =
        std::uint64_t{nodes} * in.cfg.contextsPerNode();
    const std::uint64_t hops = std::max<std::uint64_t>(
        4, kChainEvents / chains);
    const Tick window = in.cfg.sharding.windowFor(in.cfg.netRoundTrip);
    std::uint64_t events = 0;
    for (auto _ : state) {
        sim::Kernel k;
        if (lanes > 1) {
            sim::ShardPlan plan;
            plan.shards = lanes;
            plan.numNodes = nodes;
            plan.windowTicks = window;
            plan.threaded = true;
            k.configureSharding(plan);
        }
        k.reserve(chains * 2);
        for (std::uint64_t c = 0; c < chains; ++c) {
            const NodeId node = NodeId(c % nodes);
            pingChain(k, node, NodeId((node + 1) % nodes), hops,
                      lanes > 1 ? window : 0);
        }
        k.run();
        events += k.eventsRun();
    }
    state.SetItemsProcessed(std::int64_t(events));
}

sim::DetachedTask
oneRoundTrip(sim::Kernel &k, net::Network &net, NodeId src, NodeId dst)
{
    co_await sim::HopTo{k, src};
    co_await net.roundTrip(net::MsgType::RdmaRead, src, dst, 16, 256);
}

/** Round trips over the workload's remote pairs; @p fault (optional)
 *  is attached as the network's injector. */
void
benchRoundTrips(benchmark::State &state, const Inputs &in,
                const ClusterConfig &cfg, bool faulty)
{
    sim::Kernel k;
    net::Network net(k, cfg);
    std::unique_ptr<fault::FaultPlan> plan;
    if (faulty) {
        plan = std::make_unique<fault::FaultPlan>(k, cfg);
        net.setFaultInjector(plan.get());
    }
    std::size_t next = 0;
    constexpr std::size_t kBatch = 1024;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kBatch; ++i) {
            const auto &[src, dst] =
                in.remotePairs[next++ % in.remotePairs.size()];
            oneRoundTrip(k, net, src, dst);
        }
        k.run();
    }
    state.SetItemsProcessed(std::int64_t(state.iterations() * kBatch));
}

/** The fault configuration of ycsb-a-grey (a x6 slow NIC on node 1),
 *  on this workload's cluster geometry. */
ClusterConfig
greyConfig(const Inputs &in)
{
    ClusterConfig cfg = in.cfg;
    const auto grey = makeSpec("ycsb-a-grey", protocol::EngineKind::Hades,
                               in.cfg.seed);
    cfg.faults = grey.cluster.faults;
    cfg.tuning = grey.cluster.tuning;
    cfg.slo = grey.cluster.slo;
    return cfg;
}

/** Collects ns per processed item from every finished benchmark. */
class Collector : public benchmark::BenchmarkReporter
{
  public:
    bool ReportContext(const Context &) override { return true; }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const auto &run : runs) {
            const auto it = run.counters.find("items_per_second");
            if (run.error_occurred || it == run.counters.end() ||
                double(it->second) <= 0) {
                failed = true;
                continue;
            }
            nsPerItem[run.run_name.function_name] =
                1e9 / double(it->second);
        }
    }

    std::map<std::string, double> nsPerItem;
    bool failed = false;
};

/** Register every host-time microbenchmark of the pass, each reporting
 *  the items it processed so Collector can turn it into ns per item. */
void
registerMicrobenches(const Inputs &in, const ClusterConfig &grey_cfg,
                     std::uint32_t live_remote_filters,
                     std::uint32_t active_lock_buffers)
{
    auto reg = [](const char *name, auto fn) {
        benchmark::RegisterBenchmark(name, fn)
            ->MinTime(kMinTime)
            ->Unit(benchmark::kNanosecond);
    };

    reg("sim.ns_per_event",
        [&in](benchmark::State &s) { benchPingChain(s, in, 1); });
    reg("sim.ns_per_event_4lanes",
        [&in](benchmark::State &s) { benchPingChain(s, in, 4); });

    reg("net.ns_per_post", [&in](benchmark::State &s) {
        sim::Kernel k;
        net::Network net(k, in.cfg);
        std::uint64_t delivered = 0;
        std::size_t next = 0;
        constexpr std::size_t kBatch = 1024;
        for (auto _ : s) {
            for (std::size_t i = 0; i < kBatch; ++i) {
                const auto &[src, dst] =
                    in.remotePairs[next++ % in.remotePairs.size()];
                net.post(net::MsgType::Validation, src, dst, 64,
                         [&delivered] { ++delivered; });
            }
            k.run();
        }
        benchmark::DoNotOptimize(delivered);
        s.SetItemsProcessed(std::int64_t(s.iterations() * kBatch));
    });
    reg("net.ns_per_round_trip", [&in](benchmark::State &s) {
        benchRoundTrips(s, in, in.cfg, false);
    });
    reg("net.ns_per_faulty_round_trip",
        [&in, &grey_cfg](benchmark::State &s) {
            benchRoundTrips(s, in, grey_cfg, true);
        });
    reg("net.slo_ns_per_observe", [&in, &grey_cfg](benchmark::State &s) {
        const Tick healthy =
            grey_cfg.netRoundTrip + 2 * grey_cfg.nicProcessing;
        net::SloTracker slo(grey_cfg.slo, grey_cfg.numNodes, healthy);
        std::size_t next = 0;
        for (auto _ : s) {
            const auto &[obs, peer] =
                in.remotePairs[next % in.remotePairs.size()];
            const Tick slow = obs == 1 || peer == 1 ? 6 : 1;
            slo.observe(obs, peer, healthy * slow + Tick(next % 97));
            ++next;
        }
        benchmark::DoNotOptimize(slo.stats().samples);
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });
    reg("net.nic_scan_ns",
        [&in, live_remote_filters](benchmark::State &s) {
            net::HadesNicState nic(in.cfg);
            for (std::uint32_t t = 0; t < live_remote_filters; ++t) {
                auto &f = nic.remoteFilters(t + 1);
                for (const auto &a : in.lines[t % in.lines.size()])
                    a.isWrite ? f.insertWrite(a.line)
                              : f.insertRead(a.line);
            }
            std::size_t next = 0;
            for (auto _ : s) {
                const auto &a = in.stream[next++ % in.stream.size()];
                auto hits = nic.conflictingRemoteTxns(a.line, 0, a.isWrite);
                benchmark::DoNotOptimize(hits.data());
            }
            s.SetItemsProcessed(std::int64_t(s.iterations()));
        });

    reg("mem.ns_per_access", [&in](benchmark::State &s) {
        mem::NodeMemory memory(in.cfg);
        std::size_t next = 0;
        for (auto _ : s) {
            const auto &a = in.stream[next % in.stream.size()];
            auto r = memory.access(CoreId(next % in.cfg.coresPerNode),
                                   a.line);
            benchmark::DoNotOptimize(r.latency);
            ++next;
        }
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });
    reg("mem.ns_per_nic_access", [&in](benchmark::State &s) {
        mem::NodeMemory memory(in.cfg);
        std::size_t next = 0;
        for (auto _ : s) {
            auto r = memory.nicAccess(
                in.stream[next++ % in.stream.size()].line);
            benchmark::DoNotOptimize(r.latency);
        }
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });
    reg("mem.node_build", [&in](benchmark::State &s) {
        for (auto _ : s) {
            mem::NodeMemory memory(in.cfg);
            benchmark::DoNotOptimize(&memory);
        }
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });

    reg("bloom.ns_per_insert", [&in](benchmark::State &s) {
        bloom::BloomFilter bf(in.cfg.coreReadBf.bits,
                              in.cfg.coreReadBf.numHashes);
        std::size_t next = 0;
        for (auto _ : s) {
            const auto &txn = in.lines[next++ % in.lines.size()];
            bf.clear();
            for (const auto &a : txn)
                bf.insert(a.line);
            benchmark::DoNotOptimize(bf.insertedCount());
        }
        s.SetItemsProcessed(
            std::int64_t(in.stream.size() * s.iterations() /
                         in.lines.size()));
    });
    reg("bloom.ns_per_probe", [&in](benchmark::State &s) {
        bloom::BloomFilter bf(in.cfg.coreReadBf.bits,
                              in.cfg.coreReadBf.numHashes);
        for (const auto &a : in.lines[0])
            bf.insert(a.line);
        std::size_t next = 0;
        for (auto _ : s) {
            benchmark::DoNotOptimize(
                bf.mayContain(in.stream[next++ % in.stream.size()].line));
        }
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });
    reg("bloom.split_ns_per_probe", [&in](benchmark::State &s) {
        bloom::SplitWriteBloomFilter bf(in.cfg.coreWriteBf,
                                        in.cfg.llcSets());
        for (const auto &a : in.lines[0])
            bf.insert(a.line);
        std::size_t next = 0;
        for (auto _ : s) {
            benchmark::DoNotOptimize(
                bf.mayContain(in.stream[next++ % in.stream.size()].line));
        }
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });
    reg("bloom.lockbuf_ns_per_check",
        [&in, active_lock_buffers](benchmark::State &s) {
            bloom::LockingBufferBank bank(2 * in.cfg.contextsPerNode());
            for (std::uint32_t b = 0; b < active_lock_buffers; ++b) {
                bloom::BloomFilter rd(in.cfg.nicReadBf.bits,
                                      in.cfg.nicReadBf.numHashes);
                bloom::SplitWriteBloomFilter wr(in.cfg.coreWriteBf,
                                                in.cfg.llcSets());
                std::vector<Addr> writes;
                for (const auto &a : in.lines[b % in.lines.size()]) {
                    if (a.isWrite) {
                        wr.insert(a.line);
                        writes.push_back(a.line);
                    } else {
                        rd.insert(a.line);
                    }
                }
                bank.tryAcquire(b + 1, rd, wr, writes);
            }
            std::size_t next = 0;
            for (auto _ : s) {
                const auto &a = in.stream[next++ % in.stream.size()];
                benchmark::DoNotOptimize(
                    bank.accessBlocked(a.line, a.isWrite, 0));
            }
            s.SetItemsProcessed(std::int64_t(s.iterations()));
        });

    reg("workload.ns_per_txn", [&in](benchmark::State &s) {
        Rng rng{in.cfg.seed};
        NodeId node = 0;
        for (auto _ : s) {
            txn::TxnProgram prog = in.gen->next(rng, node);
            benchmark::DoNotOptimize(prog.requests.data());
            node = NodeId((node + 1) % in.cfg.numNodes);
        }
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });

    reg("audit.ns_per_commit", [&in](benchmark::State &s) {
        bool ok = true;
        for (auto _ : s) {
            audit::Auditor auditor;
            std::unordered_map<std::uint64_t, std::uint64_t> version;
            for (std::size_t t = 0; t < in.txns.size(); ++t) {
                const std::uint64_t obs = auditor.begin(t);
                std::set<std::uint64_t> seen;
                for (const auto &req : in.txns[t].requests) {
                    if (!seen.insert(req.record).second)
                        continue;
                    auto &v = version[req.record];
                    if (req.isWrite)
                        auditor.noteWrite(obs, req.record, ++v);
                    else
                        auditor.noteRead(obs, req.record, v);
                }
                auditor.noteCommit(obs);
            }
            ok &= auditor.finalize().ok();
        }
        if (!ok)
            s.SkipWithError("a serial history failed the audit");
        s.SetItemsProcessed(
            std::int64_t(s.iterations() * in.txns.size()));
    });

    reg("fault.ns_per_judge", [&in, &grey_cfg](benchmark::State &s) {
        sim::Kernel k;
        fault::FaultPlan plan(k, grey_cfg);
        std::size_t next = 0;
        for (auto _ : s) {
            const auto &[src, dst] =
                in.remotePairs[next++ % in.remotePairs.size()];
            auto d = plan.judge(net::MsgType::RdmaRead, src, dst);
            benchmark::DoNotOptimize(d.delay);
        }
        s.SetItemsProcessed(std::int64_t(s.iterations()));
    });
}

// ---------------------------------------------------------------------------
// Set-up split
// ---------------------------------------------------------------------------

struct SetupSplit
{
    double generatorsMs = 0;
    double systemMs = 0;
    double bindMs = 0;
};

/** Host time of runOne()'s three build steps for the three engines'
 *  clusters, timed from outside: generators, System, placement bind. */
SetupSplit
measureSetupSplit(const std::string &workload, std::uint64_t seed)
{
    std::vector<double> gens_ms, sys_ms, bind_ms;
    for (int t = 0; t < kSetupTrials; ++t) {
        double g = 0, y = 0, b = 0;
        for (auto engine : kEngines) {
            const auto spec = makeSpec(workload, engine, seed);

            auto t0 = Clock::now();
            auto gen = makeGenerator(spec);
            g += secondsSince(t0) * 1e3;

            t0 = Clock::now();
            auto sys = std::make_unique<protocol::System>(
                spec.cluster, gen->numRecords(),
                core::engineRecordBytes(spec.engine,
                                        spec.cluster.recordPayloadBytes),
                spec.replication);
            y += secondsSince(t0) * 1e3;

            t0 = Clock::now();
            gen->bind(sys->placement, 0);
            b += secondsSince(t0) * 1e3;
        }
        gens_ms.push_back(g);
        sys_ms.push_back(y);
        bind_ms.push_back(b);
    }
    return {median(gens_ms), median(sys_ms), median(bind_ms)};
}

} // namespace

PassResult
layerPass(const std::string &workload, std::uint64_t seed,
          std::uint64_t expect_extra)
{
    const auto pass_start = Clock::now();
    PassResult out;
    auto add = [&out](std::string name, double value, const char *unit) {
        out.metrics.push_back({std::move(name), value, unit});
    };
    const std::uint64_t input_seed = inputSeed(seed, 0);

    // ---- One run per engine, cross-checked against the serial oracle ----
    std::vector<EngineRun> runs;
    for (auto engine : kEngines) {
        const auto spec = makeSpec(workload, engine, input_seed);
        EngineRun run = runChecked(spec, expect_extra);
        if (spec.shards > 1) {
            auto oracle_spec = spec;
            oracle_spec.shards = 1;
            const auto oracle = core::runOne(oracle_spec);
            if (core::hashResult(oracle) != core::hashResult(run.result)) {
                std::fprintf(stderr,
                             "perfbench: %s at %u shards diverged from "
                             "the shards-1 oracle\n",
                             engineTag(engine), spec.shards);
                run.correct = false;
            }
        }
        const std::uint64_t want = expectedCommits(spec);
        out.attempted += want;
        out.failed += run.correct ? 0 : want;
        out.correct &= run.correct;
        runs.push_back(std::move(run));
    }
    const core::RunResult &hw = runs[2].result;

    // ---- Host-time microbenchmarks on the workload's own inputs -----------
    const auto inputs =
        drawInputs(makeSpec(workload, protocol::EngineKind::Hades,
                            input_seed));
    const ClusterConfig grey_cfg = greyConfig(*inputs);
    const std::uint64_t contexts =
        std::uint64_t{inputs->cfg.numNodes} * inputs->cfg.contextsPerNode();
    // Little's law on the HADES run: live remote filters per home, and
    // Locking Buffers held by committers (commit time over latency).
    const auto live_filters = std::uint32_t(std::lround(
        double(contexts) * inputs->remoteHomesPerTxn /
        double(inputs->cfg.numNodes)));
    const auto active_buffers = std::uint32_t(std::max<long>(
        1, std::lround(double(inputs->cfg.contextsPerNode()) * hw.commitUs /
                       std::max(hw.meanLatencyUs, 1e-9))));
    registerMicrobenches(*inputs, grey_cfg, live_filters, active_buffers);
    Collector collector;
    benchmark::RunSpecifiedBenchmarks(&collector, ".");
    benchmark::ClearRegisteredBenchmarks();
    if (collector.failed) {
        std::fprintf(stderr, "perfbench: a microbenchmark failed\n");
        out.correct = false;
    }
    auto ns = [&collector](const char *name) {
        const auto it = collector.nsPerItem.find(name);
        return it == collector.nsPerItem.end() ? 0.0 : it->second;
    };

    const SetupSplit setup = measureSetupSplit(workload, input_seed);

    // ---- sim --------------------------------------------------------------
    add("sim.ns_per_event", ns("sim.ns_per_event"), "ns");
    add("sim.ns_per_event_4lanes", ns("sim.ns_per_event_4lanes"), "ns");
    std::uint64_t windows = 0, cross = 0;
    for (const auto &run : runs) {
        windows += run.result.shardWindows;
        cross += run.result.crossShardEvents;
    }
    add("sim.window_barriers", double(windows), "count");
    add("sim.cross_shard_events", double(cross), "count");
    for (const auto &run : runs) {
        const std::string e = engineTag(run.engine);
        add("sim." + e + ".threaded", run.result.shardsThreaded, "bool");
        add("sim." + e + ".serial_rerun", run.result.serialRerun, "bool");
    }

    // ---- net --------------------------------------------------------------
    add("net.ns_per_post", ns("net.ns_per_post"), "ns");
    add("net.ns_per_round_trip", ns("net.ns_per_round_trip"), "ns");
    add("net.ns_per_faulty_round_trip",
        ns("net.ns_per_faulty_round_trip"), "ns");
    add("net.slo_ns_per_observe", ns("net.slo_ns_per_observe"), "ns");
    add("net.nic_scan_ns", ns("net.nic_scan_ns"), "ns");
    std::uint64_t retransmits = 0, hedges = 0, hedge_wins = 0;
    for (const auto &run : runs) {
        const auto &r = run.result;
        const std::string e = engineTag(run.engine);
        const double commits = double(std::max<std::uint64_t>(
            1, r.stats.committed));
        add("net." + e + ".msgs_per_commit",
            double(r.stats.netMessages) / commits, "msg");
        add("net." + e + ".bytes_per_commit",
            double(r.stats.netBytes) / commits, "B");
        retransmits += r.netRetransmits;
        hedges += r.hedgedSends;
        hedge_wins += r.hedgeWins;
    }
    add("net.retransmits", double(retransmits), "count");
    add("net.hedged_sends", double(hedges), "count");
    add("net.hedge_wins", double(hedge_wins), "count");

    // ---- mem --------------------------------------------------------------
    add("mem.ns_per_access", ns("mem.ns_per_access"), "ns");
    add("mem.ns_per_nic_access", ns("mem.ns_per_nic_access"), "ns");
    add("mem.node_build_ms",
        ns("mem.node_build") * inputs->cfg.numNodes / 1e6, "ms");
    add("mem.eviction_squash_rate", hw.evictionSquashRate, "ratio");

    // ---- bloom ------------------------------------------------------------
    add("bloom.ns_per_insert", ns("bloom.ns_per_insert"), "ns");
    add("bloom.ns_per_probe", ns("bloom.ns_per_probe"), "ns");
    add("bloom.split_ns_per_probe", ns("bloom.split_ns_per_probe"), "ns");
    add("bloom.lockbuf_ns_per_check", ns("bloom.lockbuf_ns_per_check"),
        "ns");
    add("bloom.checks_per_commit",
        double(hw.stats.bfConflictChecks) /
            double(std::max<std::uint64_t>(1, hw.stats.committed)),
        "count");
    add("bloom.fp_rate", hw.bfFalsePositiveRate, "ratio");

    // ---- protocol / txn ---------------------------------------------------
    std::array<std::uint64_t, std::size_t(txn::SquashReason::NumReasons)>
        squashes{};
    std::uint64_t shed = 0, deferrals = 0;
    for (const auto &run : runs) {
        const auto &r = run.result;
        const std::string e = engineTag(run.engine);
        const double commits = double(std::max<std::uint64_t>(
            1, r.stats.committed));
        add("protocol." + e + ".host_us_per_commit",
            run.hostSeconds * 1e6 / commits, "us");
        add("txn." + e + ".exec_us", r.execUs, "us");
        add("txn." + e + ".validation_us", r.validationUs, "us");
        add("txn." + e + ".commit_us", r.commitUs, "us");
        add("txn." + e + ".squashes_per_commit",
            double(r.stats.totalSquashes()) / commits, "count");
        add("txn." + e + ".lock_mode_fallbacks",
            double(r.stats.lockModeFallbacks), "count");
        const double core_ticks =
            double(r.simTime) * double(inputs->cfg.totalCores());
        add("txn." + e + ".core_util",
            core_ticks > 0 ? double(r.stats.totalBusyTicks) / core_ticks
                           : 0,
            "ratio");
        for (std::size_t i = 0; i < squashes.size(); ++i)
            squashes[i] += r.stats.squashes[i];
        shed += r.shedTxns;
        deferrals += r.retryBudgetDeferrals;
    }
    for (auto reason :
         {txn::SquashReason::EagerLocalConflict,
          txn::SquashReason::LazyConflict, txn::SquashReason::LockFailure,
          txn::SquashReason::ValidationFailure, txn::SquashReason::LockBusy,
          txn::SquashReason::ReplicaTimeout,
          txn::SquashReason::CommitTimeout, txn::SquashReason::Shed})
        add(std::string("txn.squash.") + txn::squashReasonName(reason),
            double(squashes[std::size_t(reason)]), "count");
    for (const auto &run : runs) {
        if (run.engine == protocol::EngineKind::Hades)
            continue; // HADES has no Table I software overheads
        for (std::size_t i = 0;
             i < std::size_t(txn::Overhead::NumCategories); ++i)
            add(std::string("txn.overhead.") + engineTag(run.engine) +
                    "." + txn::overheadName(txn::Overhead(i)),
                run.result.overheadShare[i], "ratio");
    }
    add("protocol.admission_shed", double(shed), "count");
    add("protocol.retry_budget_deferrals", double(deferrals), "count");

    // ---- workload, audit, fault, replica ----------------------------------
    add("workload.ns_per_txn", ns("workload.ns_per_txn"), "ns");
    add("audit.us_per_commit", ns("audit.ns_per_commit") / 1e3, "us");
    std::uint64_t edges = 0, checks = 0, grey = 0, repl = 0, repl_aborts = 0;
    for (const auto &run : runs) {
        edges += run.result.auditGraphEdges;
        checks += run.result.auditChecks;
        grey += run.result.greyDelays;
        repl += run.result.replicatedCommits;
        repl_aborts += run.result.replicationAborts;
    }
    add("audit.graph_edges", double(edges), "count");
    add("audit.checks", double(checks), "count");
    add("fault.ns_per_judge", ns("fault.ns_per_judge"), "ns");
    add("fault.grey_delays", double(grey), "count");
    add("replica.replicated_commits", double(repl), "count");
    add("replica.aborts", double(repl_aborts), "count");

    // ---- core -------------------------------------------------------------
    add("core.setup_ms.generators", setup.generatorsMs, "ms");
    add("core.setup_ms.system", setup.systemMs, "ms");
    add("core.setup_ms.bind", setup.bindMs, "ms");

    add("perfbench.layer_pass_s", secondsSince(pass_start), "s");

    std::printf("perfbench %s seed=%llu layer pass: %zu metrics; inputs "
                "from %zu sampled transactions; %u live remote filters, "
                "%u active Locking Buffers\n",
                workload.c_str(), (unsigned long long)seed,
                out.metrics.size(), inputs->txns.size(), live_filters,
                active_buffers);
    return out;
}

} // namespace hades::perfbench
