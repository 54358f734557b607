/**
 * @file
 * Elastic membership: CM-driven epoch-numbered *voluntary*
 * reconfiguration -- node join and planned drain with live record
 * migration under load.
 *
 * Where the RecoveryManager reacts to fail-stop crashes, the
 * MembershipManager executes *scheduled* cluster-shape changes on
 * behalf of the configuration manager:
 *
 *  - **Join**: a node that started as a spare (outside the record hash
 *    and the backup rings; MembershipConfig::initialMembers) is
 *    admitted at an epoch boundary. The CM assigns it a deterministic
 *    hash-selected share of the record space and its backup-ring
 *    slots, then streams committed record images to it in throttled
 *    background batches.
 *  - **Planned drain**: a live member stops accepting new home-node
 *    work (its drivers stop issuing, and no migration ever targets
 *    it), migrates every record it homes -- hash-placed and registered
 *    index records alike -- to surviving members, waits for its
 *    coordinated attempts to retire, hands back its hardware-state
 *    footprint (audited at end of run) and leaves the backup rings.
 *
 * Migration runs *under load* in throttled batches
 * (MembershipConfig::migrateBatchRecords / migrateBatchInterval), each
 * batch an epoch-fenced ownership handoff executed atomically in one
 * kernel event. A record some in-flight attempt has touched is never
 * moved under the attempt's feet: the move is deferred to a later
 * batch and the undecided attempt is squash-retried with
 * SquashReason::StalePlacement, so it unwinds and re-resolves record
 * homes on retry (the existing CommitTimeout/squash machinery).
 * Attempts that already reached their all-Acks point or recorded their
 * decision are left to complete at the old home. The lock-all
 * pessimistic fallback pins its whole footprint up front for the same
 * reason -- it cannot be squash-retried, so migration defers around it.
 *
 * Ring transitions (markPresent / markAbsent) shift the hash-rotated
 * backup windows of unrelated records, so after the workload drains
 * the manager runs a *convergent image-resync sweep*: every committed
 * record's current ring is topped up from ground truth, stamped with
 * the record's last committed seq (max-seq-wins keeps late promote
 * deliveries harmless). Records with journaled remote writes still in
 * flight are skipped -- their value is not yet current at the home --
 * and caught by the promote chain itself or a later pass.
 *
 * Crash composition: a participant that fail-stops mid-join or
 * mid-drain aborts the voluntary operation; whatever it still homes is
 * recovered by the RecoveryManager's ordinary view change through the
 * same re-homing overlay. Both managers reuse one epoch/fencing
 * substrate (net::Network::advanceEpoch; Migrate control traffic is
 * fence-exempt like Lease/ViewChange).
 */

#ifndef HADES_RECOVERY_MEMBERSHIP_HH_
#define HADES_RECOVERY_MEMBERSHIP_HH_

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "protocol/system.hh"
#include "sim/task.hh"

namespace hades::recovery
{

class RecoveryManager;

/** Outcome counters of the membership subsystem (RunResult surfaces
 *  them; all zero when no join/drain is scheduled). */
struct MembershipStats
{
    std::uint64_t recordsMigrated = 0;     //!< ownership handoffs executed
    std::uint64_t migrationBatches = 0;    //!< batches that moved >= 1 record
    std::uint64_t drainDurationEvents = 0; //!< drain-step events, start..leave
    std::uint64_t joinsCompleted = 0;      //!< joins fully rebalanced
    std::uint64_t drainsCompleted = 0;     //!< drains that left cleanly
    std::uint64_t deferredMoves = 0;       //!< moves deferred to a later batch
    std::uint64_t resyncImages = 0;        //!< images installed by the sweep
};

/** Scheduled join/drain executor with live record migration. */
class MembershipManager
{
  public:
    MembershipManager(protocol::System &sys,
                      const RecoveryManager &recovery);

    MembershipManager(const MembershipManager &) = delete;
    MembershipManager &operator=(const MembershipManager &) = delete;

    /** Launch the scheduled join/drain loops and the final resync
     *  sweep. Mirrors RecoveryManager::start: @p expected_drivers
     *  driver coroutines report in via driverDone(), and migration
     *  outlives the workload (deferred hot records quiesce once the
     *  attempts touching them retire). */
    void start(std::uint64_t expected_drivers);

    /** One driver coroutine finished (committed its quota or died). */
    void
    driverDone()
    {
        if (driversLeft_ > 0 && --driversLeft_ == 0)
            done_ = true;
    }

    /**
     * Should node @p n be issuing client load right now? False for
     * spares (a joiner serves as a home/replica target but brings no
     * clients of its own) and for members whose planned drain has
     * started ("stops accepting new home-node work"). Drivers check
     * this between transactions.
     */
    bool
    issuesLoad(NodeId n) const
    {
        return member_[n] != 0 && draining_[n] == 0;
    }

    /**
     * Dynamic (CM-requested) drain of @p node -- the grey-failure
     * quarantine entry point. Exactly the scheduled-drain machinery,
     * starting now: the node stops taking new home-node work and its
     * records migrate live to healthy members; if it later fail-stops,
     * the ordinary view change finishes whatever is left. False when
     * the node cannot be drained (not a member, already draining, or
     * dead -- then recovery owns it outright).
     */
    bool
    requestDrain(NodeId node)
    {
        if (node >= sys_.config.numNodes || member_[node] == 0 ||
            draining_[node] != 0 || sys_.network.nodeDead(node))
            return false;
        opsPending_ += 1;
        drainLoop(node, 0);
        return true;
    }

    /** True once every scheduled join and drain ran to completion
     *  (false if a participant crash aborted one -- recovery then owns
     *  the cleanup and the run is judged by the divergence audit). */
    bool
    complete() const
    {
        return opsPending_ == 0 && !aborted_;
    }

    /** True once the background loops may stop (all scheduled
     *  operations finished or aborted, final resync done). */
    bool finished() const { return opsPending_ == 0 && resyncDone_; }

    const MembershipStats &stats() const { return stats_; }

  private:
    sim::DetachedTask joinLoop(NodeId node, Tick at);
    sim::DetachedTask drainLoop(NodeId node, Tick at);
    sim::DetachedTask resyncLoop();

    /** Is some in-flight attempt touching @p record? If so, squash the
     *  squashable touchers (StalePlacement) and report blocked. */
    bool recordBlocked(std::uint64_t record);

    /** Epoch-fenced ownership handoff of one record to @p dst. */
    void migrateRecord(std::uint64_t record, NodeId dst);

    /** Deterministic surviving member to receive @p record on drain of
     *  @p from; numNodes (an invalid id) if none qualify. */
    NodeId pickDestination(std::uint64_t record, NodeId from) const;

    /** Stream the committed image of @p record to its current ring
     *  (skipped while a journaled remote write is in flight). */
    void streamImage(std::uint64_t record);

    /** Does any journaled (decided, unapplied) remote write target
     *  @p record? Its ground-truth value is then not yet current. */
    bool applyInFlight(std::uint64_t record) const;

    /** One convergent-resync pass; @return images installed. */
    std::uint64_t resyncPass();

    /** Hash-placed + registered records currently homed at @p node,
     *  sorted (drain work list, recomputed per batch). */
    std::vector<std::uint64_t> recordsHomedAt(NodeId node) const;

    protocol::System &sys_;
    const RecoveryManager &recovery_;
    MembershipConfig cfg_;
    MembershipStats stats_;
    std::vector<char> member_;   //!< in the cluster now
    std::vector<char> draining_; //!< drain started, not yet left
    std::uint32_t opsPending_ = 0;
    bool aborted_ = false;
    bool resyncDone_ = false;
    std::uint64_t driversLeft_ = 0;
    bool done_ = false;
};

} // namespace hades::recovery

#endif // HADES_RECOVERY_MEMBERSHIP_HH_
