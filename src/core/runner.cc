#include "core/runner.hh"

#include <algorithm>
#include <numeric>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "fault/fault_plan.hh"
#include "protocol/baseline.hh"
#include "protocol/hades.hh"
#include "protocol/system.hh"
#include "recovery/membership.hh"
#include "recovery/recovery_manager.hh"
#include "sim/resource.hh"
#include "sim/task.hh"

namespace hades::core
{

using protocol::EngineKind;
using protocol::ExecCtx;
using protocol::System;
using protocol::TxnEngine;

std::uint32_t
engineRecordBytes(EngineKind kind, std::uint32_t payload_bytes)
{
    txn::RecordLayout layout{payload_bytes};
    return kind == EngineKind::Hades ? layout.hwBytes()
                                     : layout.swBytes();
}

std::unique_ptr<TxnEngine>
makeEngine(EngineKind kind, System &sys, std::uint32_t payload_bytes)
{
    switch (kind) {
      case EngineKind::Baseline:
        return std::make_unique<protocol::BaselineEngine>(
            sys, payload_bytes);
      case EngineKind::Hades:
      case EngineKind::HadesHybrid:
        return std::make_unique<protocol::HadesEngine>(sys, payload_bytes,
                                                       kind);
    }
    panic("unknown engine kind");
}

namespace
{

/** One hardware context's driver loop. A permanent fail-stop of the
 *  context's node unwinds the in-flight transaction with NodeDead; the
 *  driver stops issuing (the node no longer executes). Either way it
 *  reports in to the recovery manager, which stops its background
 *  lease probes once every driver has finished. */
sim::DetachedTask
driveContext(TxnEngine &engine, workload::WorkloadGenerator &gen,
             ExecCtx ctx, Rng rng, std::uint64_t txns,
             recovery::RecoveryManager *recovery,
             recovery::MembershipManager *membership)
{
    // Execute in this context's node context: under sharded execution
    // the transactions then run on the node's own lane (the prologue
    // up to here runs at t=0 before kernel.run(), single-threaded).
    co_await sim::HopTo{engine.system().kernel, ctx.node};
    protocol::AdmissionController *adm =
        engine.system().admission.get();
    std::uint32_t shed_tries = 0;
    for (std::uint64_t i = 0; i < txns; ++i) {
        // Elastic membership: spares bring no client load of their
        // own, and a draining node stops issuing between transactions
        // ("stops accepting new home-node work") -- its in-flight
        // transaction always completes or squash-retries, never hangs
        // in doubt.
        if (membership && !membership->issuesLoad(ctx.node))
            break;
        // Admission control: the client asks before issuing; a refusal
        // is a shed (recorded as SquashReason::Shed), and the client
        // re-asks after a bounded deterministic backoff -- shed load is
        // delayed, never lost.
        if (adm) {
            bool gone = false;
            while (!adm->admit(ctx.node)) {
                engine.noteShed(ctx.node);
                co_await sim::Delay{engine.system().kernel,
                                    adm->shedBackoff(shed_tries)};
                shed_tries = std::min(
                    shed_tries + 1,
                    adm->config().shedBackoffCapShift);
                if (engine.system().network.nodeDead(ctx.node) ||
                    (membership &&
                     !membership->issuesLoad(ctx.node))) {
                    gone = true;
                    break;
                }
            }
            if (gone)
                break;
            shed_tries = 0;
            adm->begin(ctx.node);
        }
        txn::TxnProgram prog = gen.next(rng, ctx.node);
        bool stop = false;
        try {
            co_await engine.run(ctx, prog);
        } catch (const sim::NodeDead &) {
            stop = true;
        } catch (const sim::SerialRerunNeeded &) {
            // The threaded executor cannot run the lock-mode fallback;
            // the kernel flag is already set and runOne() redoes the
            // whole spec deterministically. Just retire this driver so
            // the doomed run drains quickly.
            stop = true;
        }
        if (adm)
            adm->end(ctx.node);
        if (stop)
            break;
    }
    if (recovery)
        recovery->driverDone();
    if (membership)
        membership->driverDone();
}

/**
 * True when @p spec qualifies for threaded sharded execution: every
 * model event must stay on its node's lane. The messaging path itself
 * is now lane-safe -- per-lane NIC port state, window-delayed
 * cross-lane delivery through the per-(src,dst) mailboxes -- so
 * cross-node workloads (YCSB, Smallbank, mixes) qualify too. What
 * still decertifies a spec is any subsystem that acts across nodes
 * outside the message fabric: fault injection (drops/resend timers
 * inspect coordinator flags from remote lanes), recovery and
 * replication (cluster-global scans), the process-global auditor, and
 * the partial-locality re-pick loop (placement probes outside the
 * generator's own node). Everything else still shards
 * deterministically on one thread when asked to.
 */
bool
certifiedForThreads(const RunSpec &spec)
{
    if (spec.cluster.faults.enabled || spec.cluster.recovery.enabled ||
        spec.replication.enabled() || spec.audit ||
        spec.cluster.membership.enabled() || spec.cluster.slo.enabled ||
        spec.cluster.admission.enabled)
        return false;
    // Uniform placement (fraction unset) and forced-full-local both
    // emit lane-pure record picks; fractional locality's re-pick
    // sweep is conservatively left to the serial executors.
    if (spec.cluster.forcedLocalFraction >= 0.0 &&
        spec.cluster.forcedLocalFraction < 1.0)
        return false;
    if (spec.cluster.sharding.forceDeterministic)
        return false;
    return true;
}

/** The random stream the driver of context @p ctx draws its
 *  transactions from. The launch loop and the lane-closure replay both
 *  seed through here, so the replay sees exactly the driver's
 *  programs. */
Rng
contextRng(const ClusterConfig &cc, const ExecCtx &ctx)
{
    return Rng{cc.seed ^ (std::uint64_t(ctx.node) << 40) ^
               (std::uint64_t(ctx.core) << 20) ^ ctx.slot};
}

/** Generator of the mix entry that drives core @p core: cores are split
 *  into contiguous blocks, one block per mix entry. */
std::size_t
mixEntryOf(const ClusterConfig &cc, CoreId core, std::size_t entries)
{
    return (std::size_t(core) * entries) / cc.coresPerNode;
}

/**
 * True when no event of the run can cross a kernel lane: every request
 * of every context's program stream is homed on the context's own
 * node. Exact, not a bound: it replays each driver's stream from a copy
 * of the driver's own Rng (WorkloadGenerator::next is a pure function
 * of (rng, node)), and stops at the first request homed elsewhere.
 * Only meaningful for thread-certified specs, whose drivers issue
 * exactly txnsPerContext programs and whose other subsystems (faults,
 * recovery, replication, audit) are off. A wrong answer cannot pass
 * silently: a cross-lane send inside the unbounded window panics
 * ("lookahead violated").
 */
bool
laneClosed(const RunSpec &spec, const mem::Placement &placement,
           std::vector<std::unique_ptr<workload::WorkloadGenerator>> &gens)
{
    const auto &cc = spec.cluster;
    for (NodeId n = 0; n < cc.numNodes; ++n) {
        for (CoreId c = 0; c < cc.coresPerNode; ++c) {
            auto &gen = *gens[mixEntryOf(cc, c, gens.size())];
            for (SlotId s = 0; s < cc.slotsPerCore; ++s) {
                Rng rng = contextRng(cc, ExecCtx{n, c, s});
                for (std::uint64_t i = 0; i < spec.txnsPerContext; ++i) {
                    const txn::TxnProgram prog = gen.next(rng, n);
                    for (const txn::Request &r : prog.requests)
                        if (placement.homeOf(r.record) != n)
                            return false;
                }
            }
        }
    }
    return true;
}

RunResult runOneImpl(const RunSpec &spec, bool force_deterministic);

} // namespace

RunResult
runOne(const RunSpec &spec)
{
    RunResult res = runOneImpl(spec, false);
    if (res.serialRerun) {
        // The threaded executor bailed out (lock-mode fallback): redo
        // the spec on the deterministic sharded executor, which
        // handles every path, and report its (bit-identical-to-serial)
        // results.
        res = runOneImpl(spec, true);
        res.serialRerun = true;
    }
    return res;
}

namespace
{

RunResult
runOneImpl(const RunSpec &spec, bool force_deterministic)
{
    always_assert(!spec.mix.empty(), "run needs at least one workload");
    if (spec.cluster.slo.enabled)
        always_assert(spec.cluster.faults.enabled,
                      "the SLO tracker observes the faulty messaging "
                      "path; slo.enabled requires faults.enabled");

    // Build the generators first: the placement needs the total record
    // count before the System exists.
    workload::WorkloadConfig wcfg;
    wcfg.numNodes = spec.cluster.numNodes;
    if (spec.cluster.membership.enabled()) {
        // Spare nodes own no records and bring no clients until their
        // join: the generators shape locality (and the KV stores place
        // their index partitions) over the initial members only.
        wcfg.numNodes =
            spec.cluster.membership.initialOwners(spec.cluster.numNodes);
    }
    wcfg.forcedLocalFraction = spec.cluster.forcedLocalFraction;
    wcfg.scaleKeys = spec.scaleKeys;

    std::vector<std::unique_ptr<workload::WorkloadGenerator>> gens;
    std::uint64_t total_records = 0;
    for (std::size_t w = 0; w < spec.mix.size(); ++w) {
        wcfg.salt = std::uint32_t(w);
        gens.push_back(workload::makeWorkload(spec.mix[w].app,
                                              spec.mix[w].store, wcfg));
        total_records += gens.back()->numRecords();
    }

    System sys(spec.cluster, total_records,
               engineRecordBytes(spec.engine,
                                 spec.cluster.recordPayloadBytes),
               spec.replication);

    std::uint64_t base = 0;
    for (auto &gen : gens) {
        gen->bind(sys.placement, base);
        base += gen->numRecords();
    }

    // Select the execution mode before the first event is scheduled.
    // The window width is the conservative lookahead: no cross-node
    // event can land sooner than half the NIC round trip. A lane-closed
    // run has no cross-node event at all, so it needs no window.
    const std::uint32_t shards =
        std::max(1u, std::min(spec.shards, spec.cluster.numNodes));
    if (shards > 1) {
        sim::ShardPlan plan;
        plan.shards = shards;
        plan.numNodes = spec.cluster.numNodes;
        plan.windowTicks = spec.cluster.sharding.windowFor(
            spec.cluster.netRoundTrip);
        plan.threaded =
            !force_deterministic && certifiedForThreads(spec);
        plan.laneClosed =
            plan.threaded && laneClosed(spec, sys.placement, gens);
        sys.kernel.configureSharding(plan);
    }

    auto engine = makeEngine(spec.engine, sys,
                             spec.cluster.recordPayloadBytes);

    // The auditor records into side structures only (it draws no
    // random numbers and schedules no events), so an audited run is
    // bit-identical to the same run without it.
    std::unique_ptr<audit::Auditor> auditor;
    if (spec.audit) {
        auditor = std::make_unique<audit::Auditor>();
        sys.audit = auditor.get();
    }

    // Attach the fault plan (if any) before the first message flies.
    // Fault-free runs never construct one, so they stay bit-identical.
    std::unique_ptr<fault::FaultPlan> faults;
    if (spec.cluster.faults.enabled) {
        faults = std::make_unique<fault::FaultPlan>(sys.kernel,
                                                    spec.cluster);
        sys.network.setFaultInjector(faults.get());
        std::vector<std::vector<sim::ComputeResource *>> cores_by_node;
        for (auto &node : sys.nodes) {
            std::vector<sim::ComputeResource *> cores;
            for (auto &core : node->cores)
                cores.push_back(core.get());
            cores_by_node.push_back(std::move(cores));
        }
        faults->scheduleNodeEvents(sys.network, cores_by_node);
    }

    // Crash-recovery subsystem (leases, view changes, backup
    // promotion). Opt-in: fault-free runs and plain fault-injection
    // runs never construct it, so they stay bit-identical.
    std::unique_ptr<recovery::RecoveryManager> recov;
    if (spec.cluster.recovery.enabled) {
        always_assert(!spec.cluster.faults.anyForever() ||
                          spec.replication.enabled(),
                      "permanent crashes with recovery enabled need "
                      "replication degree >= 1");
        recov = std::make_unique<recovery::RecoveryManager>(sys,
                                                            *engine);
    }

    // Elastic membership (scheduled joins / planned drains with live
    // record migration). Opt-in; requires the recovery substrate
    // (epochs, fencing, squash resolution) and replication (ring
    // transitions need an image-resync source of truth). Runs without
    // a join/drain schedule never construct it.
    std::unique_ptr<recovery::MembershipManager> memb;
    const bool quarantine_possible =
        spec.cluster.slo.enabled && spec.cluster.slo.quarantine;
    if (spec.cluster.membership.enabled() || quarantine_possible) {
        always_assert(spec.cluster.recovery.enabled,
                      "membership/quarantine requires recovery.enabled "
                      "(epochs, fencing, squash resolution)");
        always_assert(spec.replication.enabled(),
                      "membership/quarantine requires replication "
                      "(image resync across ring transitions)");
        const auto &mc = spec.cluster.membership;
        std::uint32_t members = mc.initialOwners(spec.cluster.numNodes);
        for (const auto &j : mc.joins) {
            always_assert(j.node < spec.cluster.numNodes,
                          "join schedules an out-of-range node");
            members += 1;
        }
        for (const auto &d : mc.drains) {
            always_assert(d.node < spec.cluster.numNodes,
                          "drain schedules an out-of-range node");
            always_assert(members > 1, "drain would empty the cluster");
            members -= 1;
        }
        memb = std::make_unique<recovery::MembershipManager>(sys,
                                                             *recov);
        // SLO-triggered quarantine: the CM drains a sustained-degraded
        // node through this membership manager.
        if (quarantine_possible)
            recov->setMembership(memb.get());
    }

    // Launch one driver per hardware context, each on its mix entry's
    // generator (mixEntryOf). Pre-size the event queue for the steady
    // state: a handful of in-flight events per context plus protocol
    // fan-out headroom.
    const auto &cc = spec.cluster;
    sys.kernel.reserve(std::size_t{cc.numNodes} * cc.contextsPerNode() *
                           8 +
                       64);
    if (recov)
        recov->start(std::uint64_t{cc.numNodes} * cc.contextsPerNode());
    if (memb)
        memb->start(std::uint64_t{cc.numNodes} * cc.contextsPerNode());
    for (NodeId n = 0; n < cc.numNodes; ++n) {
        for (CoreId c = 0; c < cc.coresPerNode; ++c) {
            auto &gen = *gens[mixEntryOf(cc, c, gens.size())];
            for (SlotId s = 0; s < cc.slotsPerCore; ++s) {
                const ExecCtx ctx{n, c, s};
                driveContext(*engine, gen, ctx, contextRng(cc, ctx),
                             spec.txnsPerContext, recov.get(),
                             memb.get());
            }
        }
    }

    bool drained = sys.kernel.run();
    always_assert(drained, "simulation did not drain its event queue");

    if (sys.kernel.serialRerunRequested()) {
        // Threaded execution hit a path it cannot reproduce; the
        // caller redoes the spec deterministically. Results of this
        // doomed run are meaningless -- return only the flag.
        RunResult bail;
        bail.serialRerun = true;
        return bail;
    }

    // ---- Correctness audit --------------------------------------------------
    RunResult res;
    if (auditor) {
        // End-of-run drain: every piece of speculative hardware state
        // must be gone once the event queue is empty.
        for (NodeId n = 0; n < spec.cluster.numNodes; ++n) {
            // A permanently crashed node's frozen speculative state is
            // unreachable, not leaked: recovery drains the dead node's
            // footprint from the *survivors*, which are still checked.
            if (sys.network.nodeDead(n))
                continue;
            auto &node = sys.node(n);
            auditor->noteDrained(
                "llc-wrtx-tags", n,
                node.memory.llc().taggedTxCount());
            auditor->noteDrained("locking-buffer", n,
                                 node.lockBank.activeCount());
            auditor->noteDrained("nic-remote-filters", n,
                                 node.nic.remoteTxCount());
            auditor->noteDrained("nic-local-state", n,
                                 node.nic.localTxCount());
            auditor->noteDrained("record-locks", n,
                                 node.versions.lockedCount());
            // A decided remote write still journaled was never applied.
            std::uint64_t unapplied = 0;
            for (const auto &[key, pa] : sys.pendingApplies)
                unapplied += pa.home == n;
            auditor->noteDrained("pending-applies", n, unapplied);
        }
        audit::AuditReport report = auditor->finalize();
        if (!report.ok())
            panic(report.summary().c_str());
        res.audited = true;
        res.auditedCommits = report.committedTxns;
        res.auditedAborts = report.abortedTxns;
        res.auditGraphEdges = report.graphEdges;
        res.auditChecks = report.filterProbesChecked +
                          report.findTagsChecked +
                          report.lockAcquiresChecked;
    }

    // ---- Extract metrics ----------------------------------------------------
    res.stats = engine->stats();
    res.simTime = sys.kernel.now();
    res.label = gens.size() == 1 ? gens[0]->label() : "mix";

    const auto &st = res.stats;
    double seconds = double(res.simTime) / double(kSecond);
    res.throughputTps =
        seconds > 0 ? double(st.committed) / seconds : 0;
    res.meanLatencyUs = st.latency.mean() / double(kMicrosecond);
    res.p95LatencyUs =
        double(st.latency.p95()) / double(kMicrosecond);
    res.p50LatencyUs =
        double(st.latency.p50()) / double(kMicrosecond);
    res.execUs = st.execPhase.mean() / double(kMicrosecond);
    res.validationUs =
        st.validationPhase.mean() / double(kMicrosecond);
    res.commitUs = st.commitPhase.mean() / double(kMicrosecond);

    double total_latency = st.latency.mean() * double(st.committed);
    if (total_latency > 0) {
        double categorized = 0;
        for (std::size_t i = 0;
             i < std::size_t(txn::Overhead::NumCategories); ++i) {
            res.overheadShare[i] =
                double(st.overheadTicks[i]) / total_latency;
            categorized += res.overheadShare[i];
        }
        res.otherShare = 1.0 - categorized;
    }

    res.squashRate = st.attempts
                         ? double(st.totalSquashes()) /
                               double(st.attempts)
                         : 0;
    std::uint64_t evictions = 0;
    for (auto &node : sys.nodes)
        evictions += node->memory.llc().speculativeEvictions();
    res.evictionSquashRate =
        st.committed ? double(evictions) / double(st.committed) : 0;
    res.bfFalsePositiveRate =
        st.bfConflictChecks
            ? double(st.bfFalsePositives) /
                  double(st.bfConflictChecks)
            : 0;

    res.stats.netMessages = sys.network.totalMessages();
    res.stats.netBytes = sys.network.totalBytes();
    res.stats.totalBusyTicks = 0;
    for (auto &node : sys.nodes)
        for (auto &core : node->cores)
            res.stats.totalBusyTicks += core->busyTime();
    if (sys.replicas) {
        res.replicatedCommits = sys.replicas->replicatedCommits();
        res.replicationAborts = sys.replicas->replicationAborts();
        res.lostReplicaMessages = sys.replicas->lostMessages();
    }
    if (faults) {
        const auto &fs = faults->stats();
        res.faultDrops =
            fs.totalDrops() + fs.crashDrops + fs.partitionDrops;
        res.faultDuplicates = fs.totalDuplicates();
        res.faultDelays = fs.totalDelays() + fs.pausedDeferrals;
        res.faultNicStalls = fs.totalNicStalls();
        res.faultCrashDrops = fs.crashDrops;
        res.partitionDrops = fs.partitionDrops;
        res.greyDelays = fs.greyDelays;
        res.stragglerReserves = fs.stragglerReserves;
        // Healing is lazy (no kernel event), so count the windows whose
        // scheduled heal instant the run actually reached.
        res.partitionHeals =
            faults->partitionsHealedBy(sys.kernel.now());
    }
    res.corruptDrops = sys.network.corruptDrops();
    if (sys.slo) {
        const auto &ss = sys.slo->stats();
        res.sloSamples = ss.samples;
        res.sloSuspectTransitions = ss.suspectTransitions;
        res.sloDegradedTransitions = ss.degradedTransitions;
    }
    res.hedgedSends = sys.network.hedgedSends();
    res.hedgeWins = sys.network.hedgeWins();
    if (sys.admission) {
        const auto &as = sys.admission->stats();
        res.admittedTxns = as.admittedTxns;
        res.shedTxns = as.shedTxns;
    }
    res.retryBudgetDeferrals = st.retryBudgetDeferrals;
    if (recov) {
        const auto &rs = recov->stats();
        res.recoveryEnabled = true;
        res.leaseProbes = rs.leaseProbes;
        res.viewChanges = rs.viewChanges;
        res.promotedRecords = rs.promotedRecords;
        res.inDoubtCommitted = rs.inDoubtCommitted;
        res.inDoubtAborted = rs.inDoubtAborted;
        res.replayedWrites = rs.replayedWrites;
        res.resyncedImages = rs.resyncedImages;
        res.cmFailovers = rs.cmFailovers;
        res.quorumRefusals = rs.quorumRefusals;
        res.staleLeaseGrants = rs.staleLeaseGrants;
        res.quarantines = rs.quarantines;
        // End-of-run durability check against ground truth: every live
        // backup of every record must hold the committed value. This
        // is the chaos fuzzer's primary predicate, and any crash /
        // partition / corruption scenario that leaves a stale backup
        // behind shows up here as a nonzero count.
        if (sys.replicas)
            res.divergentRecords = sys.replicas->divergentRecords(
                sys.data, [&](std::uint64_t r) {
                    return sys.placement.homeOf(r);
                });
    }
    if (memb) {
        const auto &ms = memb->stats();
        res.membershipEnabled = true;
        res.membershipComplete = memb->complete();
        res.recordsMigrated = ms.recordsMigrated;
        res.migrationBatches = ms.migrationBatches;
        res.drainDurationEvents = ms.drainDurationEvents;
        res.joinsCompleted = ms.joinsCompleted;
    }
    res.fencedStaleMessages = sys.network.fencedStaleMessages();
    res.netRetransmits = sys.network.totalRetransmits();
    res.shardsUsed = sys.kernel.shards();
    res.shardsThreaded = sys.kernel.threaded();
    res.laneClosed = sys.kernel.laneClosed();
    res.shardWindows = sys.kernel.windowBarriers();
    res.crossShardEvents = sys.kernel.crossShardEvents();
    res.kernelEvents = sys.kernel.eventsRun();
    return res;
}

} // namespace

} // namespace hades::core
