/**
 * @file
 * Crash recovery and reconfiguration (Section V-A's failure model made
 * operational).
 *
 * A fixed-slot *replica group* of configuration-manager nodes
 * (RecoveryConfig::managerNode .. managerNode+cmGroupSize-1, mod N)
 * grants per-node leases over the simulated network; the lowest-slot
 * live member acts as primary grantor. A probe round trip per
 * RobustnessTuning::leaseInterval renews the holder's lease, and every
 * grant carries the *CM epoch* -- the failover counter of the group --
 * so a grant issued by a deposed primary can never renew anything. A
 * node that permanently fail-stops (FaultConfig::NodeEvent::forever)
 * stops answering, its lease expires, and the acting primary runs an
 * epoch-numbered *view change*:
 *
 *  1. the configuration epoch advances; every in-flight message copy
 *     stamped with an older epoch is fenced (dropped and counted) at
 *     delivery, so delayed pre-crash traffic cannot corrupt the new
 *     view (Lease/ViewChange control traffic is exempt);
 *  2. the dead node leaves every backup ring (its replica images are
 *     unreachable) and survivors are notified;
 *  3. every record homed at the dead node is re-homed to its first
 *     *live* backup (a backup that has itself crashed -- possibly not
 *     yet declared -- is skipped, so a second crash landing mid-window
 *     cannot receive promotions), whose durable ReplicaStore image is
 *     the recovery source; record metadata migrates with the record
 *     (locks cleared), and the replication factor is restored by
 *     copying the promoted image to any live node the new primary's
 *     backup ring pulls in that never held one;
 *  4. in-doubt transactions whose coordinator died are resolved by the
 *     paper's all-Acks rule, checkable at one instant via the durable
 *     decision record (AttemptControl::decisionRecorded): decided
 *     attempts commit -- their journaled remote writes are replayed and
 *     their staged replica images promoted -- and undecided attempts
 *     abort;
 *  5. decided remote writes stranded by a dead *home* (journaled in
 *     System::pendingApplies by live coordinators) are applied at the
 *     record's new home;
 *  6. the dead node's footprint is drained from every survivor:
 *     Locking-Buffer entries, NIC remote Bloom filters, record locks,
 *     and staged replica images of its aborted attempts;
 *  7. the engine releases cluster-wide resources the dead node held
 *     (TxnEngine::onNodeDead, e.g. the pessimistic-fallback token).
 *
 * The whole view change executes in a single kernel event, modeling a
 * coordinated reconfiguration barrier; the lease machinery models
 * *detection latency* only (the declare-dead decision itself consults
 * the simulator's fail-stop oracle, so a slow-but-alive node is never
 * falsely killed).
 *
 * CM failover: each standby slot probes the acting primary with the
 * same lease mechanism. When the primary is oracle-dead and silent
 * past leaseTimeout, the lowest live slot succeeds it
 * deterministically: the CM epoch advances, stale in-flight grants are
 * discarded, and the new primary restarts the per-node probe loops.
 * The dead ex-primary's own records are then recovered by an ordinary
 * view change. Cascading crashes are handled the same way: a second
 * crash_forever is just another expired lease, declared in node order
 * once its own timeout passes.
 *
 * Split-brain rule: before declaring any death, the acting primary
 * must reach a *majority of the live CM group members* through the
 * partition oracle (FaultInjector::linkBlocked, both directions). A
 * minority-partitioned CM therefore refuses to advance the epoch
 * (counted in RecoveryStats::quorumRefusals) until the partition
 * heals; crashed group members are non-voting, consistent with the
 * fail-stop oracle the declare-dead decision already consults.
 */

#ifndef HADES_RECOVERY_RECOVERY_MANAGER_HH_
#define HADES_RECOVERY_RECOVERY_MANAGER_HH_

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "protocol/engine.hh"
#include "protocol/system.hh"
#include "sim/task.hh"

namespace hades::recovery
{

class MembershipManager;

/** Outcome counters of the recovery subsystem (RunResult surfaces
 *  them; all zero when no node dies). */
struct RecoveryStats
{
    std::uint64_t leaseProbes = 0;      //!< lease renewal round trips
    std::uint64_t viewChanges = 0;      //!< view changes executed
    std::uint64_t promotedRecords = 0;  //!< records re-homed to a backup
    std::uint64_t inDoubtCommitted = 0; //!< in-doubt txns committed
    std::uint64_t inDoubtAborted = 0;   //!< in-doubt txns aborted
    std::uint64_t replayedWrites = 0;   //!< journaled writes replayed
    std::uint64_t resyncedImages = 0;   //!< backup images re-replicated
    std::uint64_t locksReleased = 0;    //!< dead owners' record locks freed
    std::uint64_t cmFailovers = 0;      //!< CM primary successions
    std::uint64_t quorumRefusals = 0;   //!< epoch advances refused (minority)
    std::uint64_t staleLeaseGrants = 0; //!< grants discarded by CM-epoch fence
    std::uint64_t quarantines = 0;      //!< grey nodes drained by the CM
};

/** Lease-based failure detector plus view-change executor. */
class RecoveryManager
{
  public:
    RecoveryManager(protocol::System &sys, protocol::TxnEngine &engine);

    RecoveryManager(const RecoveryManager &) = delete;
    RecoveryManager &operator=(const RecoveryManager &) = delete;

    /**
     * Launch the lease probe loops (acting primary), the standby
     * probes of the CM group, and the expiry monitor.
     * @p expected_drivers is the number of driver coroutines the run
     * starts; each one reports in via driverDone() when it finishes
     * (normally or by fail-stop unwind), and the loops stop once all
     * have -- otherwise the background probes would keep the event
     * queue alive forever.
     */
    void start(std::uint64_t expected_drivers);

    /** One driver coroutine finished (committed its quota or died). */
    void
    driverDone()
    {
        if (driversLeft_ > 0 && --driversLeft_ == 0)
            done_ = true;
    }

    /**
     * Execute the view change for @p dead immediately (also the entry
     * point the monitor uses once a lease expires and the CM quorum
     * holds). Idempotent per node. Runs atomically within the current
     * kernel event.
     */
    void viewChange(NodeId dead);

    /** The node currently acting as CM primary / lease grantor. */
    NodeId cmPrimary() const { return actingPrimary_; }

    /**
     * True once the background loops may stop: every driver finished
     * AND every permanent crash the fault plan schedules has been
     * declared and failed over. Recovery outlives the workload -- a
     * crash landing near the end of the run (after the last commit,
     * before lease expiry) is still detected and repaired before the
     * simulation drains, so end-of-run durability checks see the
     * post-recovery state, never the detection-latency window. The one
     * exception: if the plan eventually kills the whole CM group,
     * recovery is impossible by design and the loops stop at driver
     * drain (whatever the last crash broke stays broken and visible).
     */
    bool finished() const;

    /**
     * True when the acting primary can reach a majority of the live CM
     * group members at instant @p now (partition oracle, both
     * directions; crashed members are non-voting). Exposed for tests.
     */
    bool cmQuorum(Tick now) const;

    const RecoveryStats &stats() const { return stats_; }

    /**
     * Attach the membership manager, enabling SLO-triggered
     * quarantine: a node the tracker reports as sustained degraded is
     * *drained* (planned live migration of its records, reusing the
     * elastic-membership machinery) instead of epoch-fenced killed --
     * a fail-slow node is still alive, so its data is recoverable
     * without a view change. Must be called before start().
     */
    void setMembership(MembershipManager *m) { membership_ = m; }

  private:
    sim::DetachedTask probeLoop(NodeId node, NodeId primary,
                                std::uint32_t gen);
    sim::DetachedTask standbyLoop(NodeId self);
    sim::DetachedTask monitorLoop();
    sim::DetachedTask quarantineLoop();

    /** Relaunch the per-node probe loops from the acting primary. */
    void startPrimaryLoops();

    /** Apply one journaled remote write at the record's current home. */
    void applyPending(std::uint64_t record,
                      const protocol::PendingApply &pa);

    /** Coordinator node encoded in a packed (epoch-tagged) txn id. */
    static NodeId
    coordinatorOf(std::uint64_t tx)
    {
        return NodeId((tx >> 32) & 0xfff);
    }

    protocol::System &sys_;
    protocol::TxnEngine &engine_;
    RecoveryConfig cfg_;
    RobustnessTuning tun_;
    RecoveryStats stats_;
    std::vector<NodeId> cmGroup_; //!< fixed slots, succession order
    NodeId actingPrimary_ = 0;
    std::uint64_t cmEpoch_ = 0;
    std::uint32_t primaryGen_ = 0; //!< bumped per failover; stale loops exit
    std::vector<Tick> lastRenewal_;
    std::vector<char> handled_; //!< view change already ran for node
    std::vector<char> quarantined_; //!< drain already requested for node
    MembershipManager *membership_ = nullptr;
    std::uint64_t driversLeft_ = 0;
    bool done_ = false;
};

} // namespace hades::recovery

#endif // HADES_RECOVERY_RECOVERY_MANAGER_HH_
