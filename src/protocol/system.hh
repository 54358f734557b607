/**
 * @file
 * Shared simulation state the protocol engines operate on: per-node
 * hardware (memory hierarchy, Locking Buffers, HADES NIC state, record
 * metadata), the interconnect, record placement, the functional ground
 * truth, and the squash router that delivers conflict-induced squashes
 * to running transaction attempts.
 */

#ifndef HADES_PROTOCOL_SYSTEM_HH_
#define HADES_PROTOCOL_SYSTEM_HH_

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/auditor.hh"
#include "bloom/locking_buffer.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "mem/address_space.hh"
#include "mem/hierarchy.hh"
#include "net/hades_nic.hh"
#include "net/network.hh"
#include "net/slo_tracker.hh"
#include "protocol/admission.hh"
#include "replica/replication.hh"
#include "sim/kernel.hh"
#include "sim/resource.hh"
#include "sim/task.hh"
#include "txn/ground_truth.hh"
#include "txn/txn_stats.hh"
#include "txn/version_table.hh"

namespace hades::protocol
{

/** Identity of one hardware transaction context executing a program. */
struct ExecCtx
{
    NodeId node = 0;
    CoreId core = 0;
    SlotId slot = 0;

    GlobalTxId gid() const { return GlobalTxId{node, core, slot}; }
    std::uint64_t packed() const { return gid().pack(); }
};

/**
 * Control block of one in-flight transaction attempt, registered with
 * the SquashRouter so conflicts detected anywhere in the cluster can
 * squash it. Also carries the *exact* local-access footprint of the
 * attempt, the measurement oracle for Bloom-filter false positives
 * (hardware would not have it; Section VIII-C reports the rates). The
 * remote footprint lives with the Bloom filters it shadows, in the
 * home node's NIC (net::RemoteTxFilters), so footprint probes are
 * always lane-local.
 */
// hades-analyze: lane-escape-ok (owned by the coordinator's lane: all fields are written either by the coordinator's own events or by squash/ack deliveries routed to the coordinator's lane through the window-barrier mailboxes)
struct AttemptControl
{
    bool squashRequested = false;
    txn::SquashReason reason = txn::SquashReason::LazyConflict;
    /** Set once all Acks are received: the attempt can no longer be
     *  squashed ("After this, i cannot be squashed anymore"). */
    bool uncommittable = false;
    /** Wakes the attempt's wait loop (ack progress or squash). */
    sim::AutoResetEvent wake;

    // ---- Crash-recovery bookkeeping (see src/recovery/). ----
    /** Correctness-audit id of this attempt (0 when auditing is off). */
    std::uint64_t auditId = 0;
    /** Commit/abort fully processed; recovery leaves it alone. */
    bool finished = false;
    /** The coordinator reached its serialization point: the commit
     *  sequence was drawn and the writes applied to ground truth,
     *  atomically in one kernel event (models a durable commit record).
     *  An in-doubt transaction whose coordinator died permanently is
     *  committed by recovery iff this is set, else aborted -- the
     *  paper's all-Acks rule made checkable at a single instant. */
    bool decisionRecorded = false;
    /** Commit sequence drawn at the serialization point (see
     *  replica::ReplicaManager::nextCommitSeq). */
    std::uint64_t commitSeq = 0;
    /** Recovery committed/aborted this attempt on the (dead)
     *  coordinator's behalf; the attempt's NodeDead unwind must not
     *  double-count stats or re-touch protocol state. */
    bool resolvedByRecovery = false;

    // ---- Elastic-membership bookkeeping (see src/recovery/). ----
    /** Data records this attempt has accessed so far (filled only when
     *  membership is enabled). The MembershipManager's batch handoff
     *  consults it: a record with an in-flight attempt against it is
     *  deferred (and the attempt squash-retried with StalePlacement)
     *  rather than moved under the attempt's feet. Point queries only;
     *  never iterated. */
    std::unordered_set<std::uint64_t> recordsTouched;
    /** Attempt cannot honor a squash request (the lock-all pessimistic
     *  fallback's acquisition loop ignores squashes by design), so
     *  migration must defer every record it pins until it finishes. */
    bool pinned = false;

    // Exact local footprint (oracle for false-positive accounting).
    std::unordered_set<Addr> localReadLines;
    std::unordered_set<Addr> localWriteLines;
};

/** Coordinator node encoded in a packed GlobalTxId (bits 32..47; epoch
 *  restamping touches bits 48+ only, so this survives recovery's
 *  epoch-stamped ids). */
inline NodeId
txnNode(std::uint64_t tx)
{
    return NodeId((tx >> 32) & 0xffff);
}

/** Result of asking the router to squash a transaction. */
enum class SquashOutcome
{
    Delivered,     //!< the victim will unwind and retry
    Uncommittable, //!< victim already received all Acks; cannot squash
    NotFound,      //!< no such attempt (already finished/squashed)
};

/** Delivers squashes to registered attempts by packed GlobalTxId. */
// hades-analyze: lane-escape-ok (per-node shard indexed by coordinator; engines reach a foreign coordinator's shard only from message handlers already executing on that coordinator's lane -- see TxnEngine::squashVictim)
class SquashRouter
{
  public:
    void
    add(std::uint64_t tx, AttemptControl *ctrl)
    {
        active_[tx] = ctrl;
    }

    void remove(std::uint64_t tx) { active_.erase(tx); }

    AttemptControl *
    find(std::uint64_t tx)
    {
        auto it = active_.find(tx);
        return it == active_.end() ? nullptr : it->second;
    }

    /** Request the squash of @p tx. */
    SquashOutcome
    squash(sim::Kernel &kernel, std::uint64_t tx, txn::SquashReason why)
    {
        AttemptControl *c = find(tx);
        if (!c)
            return SquashOutcome::NotFound;
        if (c->uncommittable)
            return SquashOutcome::Uncommittable;
        if (!c->squashRequested)
            c->reason = why;
        deliver(kernel, tx, *c);
        return SquashOutcome::Delivered;
    }

    /** Land a squash on attempt @p tx (control block @p c): flag it and
     *  wake it both where it waits for Acks and where it stalls on the
     *  directory. Every squash reaches an attempt through here. */
    static void
    deliver(sim::Kernel &kernel, std::uint64_t tx, AttemptControl &c)
    {
        c.squashRequested = true;
        c.wake.notify(kernel);
        kernel.wakeParked(txnNode(tx), tx);
    }

    /** All registered attempts, keyed by packed GlobalTxId. Recovery's
     *  in-doubt scan iterates this; std::map (point-ops only, so the
     *  container swap is behavior-neutral) keeps the iteration -- and
     *  with it every recovery action -- deterministic. */
    const std::map<std::uint64_t, AttemptControl *> &
    active() const
    {
        return active_;
    }

  private:
    std::map<std::uint64_t, AttemptControl *> active_;
};

/** All per-node state. */
struct NodeCtx
{
    NodeCtx(NodeId id_, const ClusterConfig &cfg, sim::Kernel &kernel)
        : id(id_),
          memory(cfg, &kernel),
          lockBank(cfg.lockingBuffersPerNode
                       ? cfg.lockingBuffersPerNode
                       : 2 * cfg.contextsPerNode()),
          nic(cfg)
    {
        for (std::uint32_t c = 0; c < cfg.coresPerNode; ++c)
            cores.push_back(std::make_unique<sim::ComputeResource>(kernel));
        // A freed Locking Buffer may let this node's stalled directory
        // accesses pass.
        lockBank.setReleaseHook(
            [&kernel, id_] { kernel.wakeParked(id_); });
    }

    NodeId id;
    mem::NodeMemory memory;
    bloom::LockingBufferBank lockBank;
    net::HadesNicState nic;
    txn::VersionTable versions;
    std::vector<std::unique_ptr<sim::ComputeResource>> cores;
};

/**
 * One decided-but-not-yet-applied remote write (crash recovery only).
 *
 * A coordinator applies *local* writes to ground truth atomically at
 * its serialization point, but each *remote* write only lands when the
 * Validation / commit-write message reaches the record's home node. If
 * either endpoint dies permanently in that window the message never
 * arrives, yet the transaction is committed (the client was acked) --
 * the write must not be lost. With recovery enabled, coordinators
 * journal every remote write here in the same kernel event that records
 * the commit decision, and the home node's apply handler retires the
 * entry when (and only when) it actually installs the write. A view
 * change replays whatever is left for dead endpoints.
 */
struct PendingApply
{
    NodeId home = 0;          //!< record's home at decision time
    std::int64_t value = 0;   //!< committed value to install
    std::uint64_t auditId = 0; //!< observation to note the write under
};

/** The complete simulated cluster an engine runs against. */
class System
{
  public:
    /**
     * @param cfg          cluster configuration
     * @param num_records  records pre-placed across the nodes
     * @param record_bytes in-memory footprint of one record (depends on
     *                     the engine's layout: swBytes or hwBytes)
     */
    System(const ClusterConfig &cfg, std::uint64_t num_records,
           std::uint32_t record_bytes,
           const replica::ReplicationConfig &repl = {})
        : config(cfg),
          clock(cfg.clock()),
          network(kernel, config),
          placement(cfg.numNodes, num_records, record_bytes,
                    cfg.membership.initialOwners(cfg.numNodes))
    {
        for (NodeId n = 0; n < cfg.numNodes; ++n)
            nodes.push_back(
                std::make_unique<NodeCtx>(n, config, kernel));
        if (repl.enabled()) {
            replicas = std::make_unique<replica::ReplicaManager>(
                repl, cfg.numNodes, cfg.seed ^ 0xface);
            // Elastic membership: nodes beyond the initial member count
            // start as spares -- outside the backup rings until their
            // scheduled join admits them.
            for (NodeId n = cfg.membership.initialOwners(cfg.numNodes);
                 n < cfg.numNodes; ++n)
                replicas->markAbsent(n);
        }
        // One router and one RNG stream per node (plus a control
        // bucket): protocol state touched on a transaction's
        // coordinator node stays on that node's shard lane, and each
        // node draws from its own deterministic stream regardless of
        // how other nodes' draws interleave.
        routers_.resize(cfg.numNodes + 1);
        rngs_.reserve(cfg.numNodes + 1);
        for (NodeId n = 0; n <= cfg.numNodes; ++n)
            rngs_.emplace_back(cfg.seed ^ 0x5ca1ab1e ^
                               (std::uint64_t{n} + 1) * 0x9e3779b97f4a7c15ULL);
        data.shard(cfg.numNodes, [this](std::uint64_t record) {
            return placement.staticHomeOf(record);
        });
        if (cfg.slo.enabled) {
            // Healthy reference RTT: one wire round trip plus the NIC
            // processing at both endpoints (serialization and remote
            // work push observed samples above it, which the percent
            // thresholds absorb).
            slo = std::make_unique<net::SloTracker>(
                cfg.slo, cfg.numNodes,
                cfg.netRoundTrip + 2 * cfg.nicProcessing);
            network.setSloTracker(slo.get());
        }
        if (cfg.admission.enabled)
            admission = std::make_unique<AdmissionController>(
                cfg.admission, kernel, cfg.numNodes);
    }

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    NodeCtx &node(NodeId n) { return *nodes[n]; }
    Tick cycles(std::int64_t n) const { return clock.cycles(n); }

    /** Squash router shard of @p tx's coordinator node. All register /
     *  squash / find traffic for a transaction goes through its
     *  coordinator's shard, which keeps the state lane-local under
     *  sharded execution. */
    SquashRouter &
    routerFor(std::uint64_t tx)
    {
        NodeId n = txnNode(tx);
        return routers_[n < config.numNodes ? n : config.numNodes];
    }

    /** Router shard of node @p n (recovery iterates per node). */
    SquashRouter &routerForNode(NodeId n) { return routers_[n]; }
    const SquashRouter &routerForNode(NodeId n) const { return routers_[n]; }

    /**
     * Deterministic RNG stream of the node whose context is currently
     * executing (the control stream outside any node context). Keyed on
     * the kernel's execution context so each node's draw sequence is
     * independent of how other nodes' events interleave -- the property
     * that makes results shard-count invariant.
     */
    Rng &
    rng()
    {
        NodeId n = kernel.currentNode();
        return rngs_[n < config.numNodes ? n : config.numNodes];
    }

    sim::Kernel kernel;
    ClusterConfig config;
    Clock clock;
    net::Network network;
    mem::Placement placement;
    txn::GroundTruth data;
    std::vector<std::unique_ptr<NodeCtx>> nodes;
    /** Optional Section V-A fault-tolerance substrate. */
    std::unique_ptr<replica::ReplicaManager> replicas;
    /** Latency-SLO grey-failure detector; null unless config.slo is
     *  enabled. Fed by the faulty messaging path, read by engines
     *  (hedging decisions) and the CM (quarantine trigger). */
    std::unique_ptr<net::SloTracker> slo;
    /** Admission control + retry budgets; null unless enabled. */
    std::unique_ptr<AdmissionController> admission;
    /** Correctness auditor; null when auditing is off. Engines report
     *  reads/writes/commits and hardware invariant checks into it;
     *  purely observational, so it cannot perturb the simulation. */
    audit::Auditor *audit = nullptr;
    /** Decided remote writes still in flight, keyed (txn id, record);
     *  only populated when config.recovery.enabled (see PendingApply).
     *  Ordered so recovery's replay pass is deterministic. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, PendingApply>
        pendingApplies; // hades-analyze: lane-escape-ok (recovery-only journal; recovery-enabled specs never certify for threaded execution)
    /** Durable commit-decision log: txn id -> commit sequence, written
     *  at each coordinator's serialization point (recovery only). A
     *  view change uses it to finish the promotion of staged replica
     *  images whose coordinator died after deciding but whose promote
     *  message was lost -- and, conversely, to discard staged images
     *  of transactions that never decided. */
    // hades-analyze: lane-escape-ok (recovery-only journal; recovery-enabled specs never certify for threaded execution)
    std::map<std::uint64_t, std::uint64_t> decisionLog;

  private:
    /** Per-node squash-router shards, indexed by coordinator node;
     *  slot numNodes is the control bucket (never used by engines, it
     *  exists so routerFor is total). */
    std::vector<SquashRouter> routers_;
    /** Per-node RNG streams + one control stream (see rng()). */
    std::vector<Rng> rngs_;
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_SYSTEM_HH_
