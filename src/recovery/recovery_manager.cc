#include "recovery/recovery_manager.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "net/network.hh"
#include "recovery/membership.hh"
#include "sim/resource.hh"

namespace hades::recovery
{

using protocol::AttemptControl;

RecoveryManager::RecoveryManager(protocol::System &sys,
                                 protocol::TxnEngine &engine)
    : sys_(sys), engine_(engine), cfg_(sys.config.recovery),
      tun_(sys.config.tuning),
      lastRenewal_(sys.config.numNodes, 0),
      handled_(sys.config.numNodes, 0),
      quarantined_(sys.config.numNodes, 0)
{
    // Fixed-slot CM replica group: cmGroupSize consecutive node slots
    // starting at managerNode. Succession order is slot order.
    std::uint32_t size = cfg_.cmGroupSize;
    if (size == 0)
        size = 1;
    if (size > sys_.config.numNodes)
        size = sys_.config.numNodes;
    for (std::uint32_t i = 0; i < size; ++i)
        cmGroup_.push_back(
            NodeId((cfg_.managerNode + i) % sys_.config.numNodes));
    actingPrimary_ = cmGroup_.front();
}

void
RecoveryManager::start(std::uint64_t expected_drivers)
{
    driversLeft_ = expected_drivers;
    done_ = expected_drivers == 0;
    startPrimaryLoops();
    for (std::size_t i = 1; i < cmGroup_.size(); ++i)
        standbyLoop(cmGroup_[i]);
    monitorLoop();
    if (membership_ && sys_.slo && sys_.slo->config().quarantine)
        quarantineLoop();
}

bool
RecoveryManager::finished() const
{
    if (!done_)
        return false;
    // Unrecoverable plan: every CM group slot eventually fail-stops,
    // so the tail of the crash schedule has no grantor left to declare
    // it. Stop at driver drain instead of spinning forever.
    bool cm_survives = false;
    for (NodeId g : cmGroup_)
        if (sys_.config.faults.crashForeverAt(g) == kTickMax)
            cm_survives = true;
    if (!cm_survives)
        return true;
    for (NodeId n = 0; n < sys_.config.numNodes; ++n)
        if (!handled_[n] &&
            sys_.config.faults.crashForeverAt(n) != kTickMax)
            return false;
    return true;
}

void
RecoveryManager::startPrimaryLoops()
{
    for (NodeId n = 0; n < sys_.config.numNodes; ++n)
        if (n != actingPrimary_ && !handled_[n])
            probeLoop(n, actingPrimary_, primaryGen_);
}

sim::DetachedTask
RecoveryManager::probeLoop(NodeId node, NodeId primary,
                           std::uint32_t gen)
{
    // The acting primary's lease probe to one node: a small round trip
    // per leaseInterval. A permanently crashed holder stops answering
    // (faultyRoundTrip gives up on a dead destination), so its renewal
    // timestamp freezes and the lease expires. The renewal itself
    // consults the fail-stop oracle: the lease machinery models
    // *detection latency*, never false positives. Every grant carries
    // the CM epoch of its send instant; a grant that completes after a
    // CM failover (or from a since-dead primary) is stale and is
    // discarded instead of renewing -- the epoch fence that keeps a
    // deposed primary from extending leases it no longer owns.
    try {
        while (!done_ && !handled_[node] && gen == primaryGen_) {
            stats_.leaseProbes += 1;
            const std::uint64_t grant_epoch = cmEpoch_;
            co_await sys_.network.roundTrip(net::MsgType::Lease,
                                            primary, node, 16, 8);
            if (gen != primaryGen_ || grant_epoch != cmEpoch_ ||
                sys_.network.nodeDead(primary)) {
                stats_.staleLeaseGrants += 1;
                break;
            }
            if (!sys_.network.nodeDead(node))
                lastRenewal_[node] = sys_.kernel.now();
            co_await sim::Delay{sys_.kernel, tun_.leaseInterval};
        }
    } catch (const sim::NodeDead &) {
        // The granting primary died mid-probe: its standbys detect the
        // silence through their own probes and succeed it.
    }
}

sim::DetachedTask
RecoveryManager::standbyLoop(NodeId self)
{
    // A CM standby probes the acting primary with the same lease
    // mechanism the primary uses on everyone else. When the primary is
    // oracle-dead and silent past leaseTimeout, the lowest live slot
    // succeeds it: deterministic, no election traffic to model.
    try {
        Tick last_seen = 0;
        while (!finished()) {
            co_await sim::Delay{sys_.kernel, tun_.leaseInterval};
            if (finished() || actingPrimary_ == self ||
                sys_.network.nodeDead(self))
                break;
            const NodeId primary = actingPrimary_;
            stats_.leaseProbes += 1;
            co_await sys_.network.roundTrip(net::MsgType::Lease, self,
                                            primary, 16, 8);
            if (finished() || actingPrimary_ != primary)
                continue; // someone else already handled the failover
            const Tick now = sys_.kernel.now();
            if (!sys_.network.nodeDead(primary)) {
                last_seen = now;
                continue;
            }
            if (now - last_seen <= tun_.leaseTimeout)
                continue;
            // Primary confirmed dead and silent past the lease horizon:
            // the first live slot in group order succeeds it.
            NodeId successor = self;
            for (NodeId g : cmGroup_)
                if (!sys_.network.nodeDead(g)) {
                    successor = g;
                    break;
                }
            if (successor != self)
                continue;
            cmEpoch_ += 1;
            stats_.cmFailovers += 1;
            actingPrimary_ = self;
            primaryGen_ += 1;
            startPrimaryLoops();
            // The dead ex-primary's records are recovered by an
            // ordinary view change once the monitor sees its (frozen,
            // never-renewed) lease expire.
            break;
        }
    } catch (const sim::NodeDead &) {
        // This standby died mid-probe; later slots keep watching.
    }
}

sim::DetachedTask
RecoveryManager::monitorLoop()
{
    while (!finished()) {
        co_await sim::Delay{sys_.kernel, tun_.leaseInterval};
        if (finished())
            break;
        // While the acting primary is itself dead, nobody may declare
        // deaths: the standby succession (standbyLoop) must run first.
        if (sys_.network.nodeDead(actingPrimary_))
            continue;
        const Tick now = sys_.kernel.now();
        for (NodeId n = 0; n < sys_.config.numNodes; ++n) {
            if (n == actingPrimary_ || handled_[n])
                continue;
            if (sys_.network.nodeDead(n) &&
                now - lastRenewal_[n] > tun_.leaseTimeout) {
                // Split-brain rule: a CM that cannot reach a majority
                // of the live group members must not advance the
                // epoch. The refusal is re-evaluated every interval;
                // once the partition heals the view change proceeds.
                if (!cmQuorum(now)) {
                    stats_.quorumRefusals += 1;
                    continue;
                }
                viewChange(n);
            }
        }
    }
}

sim::DetachedTask
RecoveryManager::quarantineLoop()
{
    // Grey-failure quarantine (the mild half of the decision table;
    // the view change is the harsh half). A node the SLO tracker sees
    // as *sustained* degraded is alive-but-slow: its data is intact
    // and reachable, so the right response is a planned drain -- live
    // migration of its records to healthy members -- not the
    // epoch-fenced kill a fail-stop gets. If the node later dies
    // anyway, monitorLoop's ordinary view change finishes the job.
    // Same CM discipline as declaring a death: only the acting primary
    // acts, and only with a live-majority quorum.
    while (!finished()) {
        co_await sim::Delay{sys_.kernel, tun_.leaseInterval};
        if (finished())
            break;
        if (sys_.network.nodeDead(actingPrimary_))
            continue;
        NodeId victim = 0;
        if (!sys_.slo->sustainedDegraded(victim))
            continue;
        if (victim == actingPrimary_ || quarantined_[victim] ||
            handled_[victim] || sys_.network.nodeDead(victim))
            continue;
        if (!cmQuorum(sys_.kernel.now())) {
            stats_.quorumRefusals += 1;
            continue;
        }
        if (membership_->requestDrain(victim)) {
            quarantined_[victim] = 1;
            stats_.quarantines += 1;
        }
    }
}

bool
RecoveryManager::cmQuorum(Tick now) const
{
    const net::FaultInjector *fi = sys_.network.faultInjector();
    std::uint32_t live = 0;
    std::uint32_t reachable = 0;
    for (NodeId g : cmGroup_) {
        if (sys_.network.nodeDead(g))
            continue; // crashed members are non-voting (fail-stop oracle)
        live += 1;
        if (g == actingPrimary_) {
            reachable += 1;
            continue;
        }
        const bool blocked =
            fi && (fi->linkBlocked(actingPrimary_, g, now) ||
                   fi->linkBlocked(g, actingPrimary_, now));
        if (!blocked)
            reachable += 1;
    }
    return reachable >= live / 2 + 1;
}

void
RecoveryManager::applyPending(std::uint64_t record,
                              const protocol::PendingApply &pa)
{
    std::uint64_t v = sys_.data.write(record, pa.value);
    if (sys_.audit && pa.auditId)
        sys_.audit->noteWrite(pa.auditId, record, v);
    sys_.node(sys_.placement.homeOf(record))
        .versions.bumpVersion(record);
    stats_.replayedWrites += 1;
}

void
RecoveryManager::viewChange(NodeId dead)
{
    if (handled_[dead])
        return;
    handled_[dead] = 1;

    auto &net = sys_.network;
    always_assert(net.nodeDead(dead),
                  "view change declared for a live node");
    always_assert(sys_.replicas != nullptr,
                  "crash recovery requires replication degree >= 1 "
                  "(no backup to promote a dead node's records from)");

    stats_.viewChanges += 1;

    // --- 1. New configuration epoch: fence the old view's traffic. ----------
    net.advanceEpoch();
    sys_.replicas->markDead(dead);

    // --- 2. Notify the survivors (timing/accounting only: the state
    // transition below is atomic within this kernel event, modeling a
    // coordinated reconfiguration barrier). -----------------------------------
    for (NodeId n = 0; n < sys_.config.numNodes; ++n)
        if (n != actingPrimary_ && !net.nodeDead(n))
            // hades-analyze: verb-reliability-ok (timing/accounting copy; the view transition is applied atomically within this kernel event)
            net.post(net::MsgType::ViewChange, actingPrimary_, n, 32,
                     [] {});

    // --- 3. Re-home every record the dead node was primary for to its
    // first *live* backup; record metadata migrates with it (the dead
    // owner's locks do not). A backup that is itself crashed -- even if
    // its own view change has not run yet (cascading failure) -- is
    // skipped, so promotions never land on a corpse; its slot is
    // cleaned up by its own view change in node order. ------------------------
    const std::uint32_t record_bytes = sys_.placement.recordBytes();
    std::vector<std::pair<std::uint64_t, NodeId>> rehomed;
    for (std::uint64_t r = 0; r < sys_.placement.numRecords(); ++r) {
        if (sys_.placement.homeOf(r) != dead)
            continue;
        NodeId new_primary = dead;
        for (NodeId b : sys_.replicas->backupsOf(r, dead))
            if (!net.nodeDead(b)) {
                new_primary = b;
                break;
            }
        always_assert(new_primary != dead,
                      "record lost: no live backup to promote");
        const txn::RecordMeta meta = sys_.node(dead).versions.peek(r);
        sys_.placement.rehome(r, new_primary, record_bytes);
        sys_.node(new_primary).versions.installMigrated(r, meta);
        rehomed.emplace_back(r, new_primary);
        stats_.promotedRecords += 1;
    }

    // --- 4. Resolve in-doubt transactions coordinated by the dead
    // node, by the paper's all-Acks rule: the durable decision record
    // says whether the coordinator passed its serialization point.
    // Decided -> commit (step 5 replays the journaled remote writes;
    // staged replica images are promoted in step 6). Undecided -> abort
    // (the client was never acked). -------------------------------------------
    std::vector<std::pair<std::uint64_t, AttemptControl *>> victims;
    // Router state is sharded by coordinator node; scanning the shards
    // in node order (each one an ordered map) keeps the resolution
    // order deterministic.
    for (NodeId n = 0; n <= sys_.config.numNodes; ++n)
        for (const auto &[id, ctrl] : sys_.routerForNode(n).active())
            if (coordinatorOf(id) == dead && !ctrl->finished)
                victims.emplace_back(id, ctrl);
    for (auto &[id, ctrl] : victims) {
        if (ctrl->decisionRecorded) {
            if (sys_.audit && ctrl->auditId)
                sys_.audit->noteCommit(ctrl->auditId);
            stats_.inDoubtCommitted += 1;
        } else {
            if (sys_.audit && ctrl->auditId)
                sys_.audit->noteAbort(ctrl->auditId);
            stats_.inDoubtAborted += 1;
        }
        ctrl->resolvedByRecovery = true;
        ctrl->reason = txn::SquashReason::NodeFailure;
        ctrl->finished = true;
        protocol::SquashRouter::deliver(sys_.kernel, id, *ctrl);
        sys_.routerFor(id).remove(id);
    }

    // --- 5. Apply decided writes stranded by a dead *home*: a live
    // coordinator's commit-write to the dead node can never land, but
    // the transaction is committed. The journal entry is applied at the
    // record's new home (re-homed in step 3). Every write journaled by
    // the dead *coordinator* is decided too: those of its in-doubt
    // commits (step 4), and those of attempts that finished before the
    // crash, whose Validation resend chains died with it (step 7 clears
    // the remote filters that a late copy would need to apply). -------
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stranded;
    for (const auto &[key, pa] : sys_.pendingApplies)
        if (pa.home == dead || coordinatorOf(key.first) == dead)
            stranded.push_back(key);
    for (const auto &key : stranded) {
        applyPending(key.second, sys_.pendingApplies.at(key));
        sys_.pendingApplies.erase(key);
    }

    // --- 6. Settle staged replica images of the dead coordinator's
    // transactions at every live store: decided transactions (durable
    // decision record exists) finish their promotion -- this also
    // repairs a decided-then-crashed coordinator whose promote message
    // was lost -- and undecided ones are rolled back. -------------------------
    for (NodeId n = 0; n < sys_.config.numNodes; ++n) {
        if (net.nodeDead(n))
            continue;
        auto &store = sys_.replicas->store(n);
        for (std::uint64_t tx : store.stagedTxIds()) {
            if (coordinatorOf(tx) != dead)
                continue;
            auto it = sys_.decisionLog.find(tx);
            if (it != sys_.decisionLog.end())
                store.promote(tx, it->second);
            else
                store.discard(tx);
        }
    }

    // --- 6b. Restore the replication factor of the re-homed records:
    // the backup ring under the new primary skips a different node, so
    // a node that never held a record's image can enter its window --
    // and the *old* ring's promotes, in flight or yet to be resent,
    // will never target it. The new primary's own durable image is not
    // authoritative either: the promote carrying the latest committed
    // value may itself still be riding a resend loop when the view
    // change runs. The new primary instead serves the record's
    // committed value directly (steps 4/5 above already replayed any
    // stranded journaled writes into it), stamped with the commit seq
    // the writer recorded at its serialization point, and pushes a
    // copy to every live backup of the new ring; max-seq-wins keeps
    // the copies consistent with promote deliveries landing on either
    // side of the view change. A crashed-but-undeclared backup is
    // skipped (its own view change empties the slot). RecoveryConfig::
    // testSkipImageResync elides this step -- the fuzzer's known
    // seeded bug, visible as divergentRecords. --------------------------------
    if (!cfg_.testSkipImageResync) {
        for (const auto &[r, np] : rehomed) {
            const auto seq = sys_.replicas->lastCommittedSeq(r);
            if (!seq)
                continue; // never committed to: nothing to restore
            const std::int64_t value = sys_.data.read(r);
            for (NodeId b : sys_.replicas->backupsOf(r, np)) {
                if (net.nodeDead(b))
                    continue;
                const auto cur = sys_.replicas->store(b).durableImage(r);
                if (cur && cur->seq >= *seq)
                    continue;
                sys_.replicas->store(b).installDurable(r, value, *seq);
                stats_.resyncedImages += 1;
            }
        }
    }

    // --- 7. Drain the dead node's footprint from every survivor:
    // Locking-Buffer entries, NIC remote Bloom filters, and record
    // locks its attempts held remotely. The scan walks the survivors'
    // actual hardware state, not just the router's in-doubt victims: an
    // attempt that *finished* before the crash (aborted, retried,
    // committed) can still have state here if its reliable Squash
    // cleanup was in flight when the coordinator died -- the resend
    // loop died with the source node and nobody else will ever send it. -------
    for (NodeId n = 0; n < sys_.config.numNodes; ++n) {
        if (net.nodeDead(n))
            continue;
        auto &node = sys_.node(n);
        std::vector<std::uint64_t> stale;
        for (const auto &[tx, filters] : node.nic.remote())
            if (coordinatorOf(tx) == dead)
                stale.push_back(tx);
        for (std::uint64_t tx : node.lockBank.activeOwners())
            if (coordinatorOf(tx) == dead)
                stale.push_back(tx);
        for (std::uint64_t tx : node.versions.lockOwners())
            if (coordinatorOf(tx) == dead)
                stale.push_back(tx);
        std::sort(stale.begin(), stale.end());
        stale.erase(std::unique(stale.begin(), stale.end()),
                    stale.end());
        for (std::uint64_t tx : stale) {
            node.lockBank.release(tx);
            node.nic.clearRemoteFilters(tx);
            stats_.locksReleased += node.versions.releaseOwnedBy(tx);
        }
    }

    // --- 8. Cluster-wide resources the dead node may hold (e.g. the
    // pessimistic-fallback token). --------------------------------------------
    engine_.onNodeDead(dead);
}

} // namespace hades::recovery
