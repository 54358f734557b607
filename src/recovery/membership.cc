/**
 * @file
 * MembershipManager implementation: scheduled joins and planned drains
 * with throttled live record migration (see membership.hh for the
 * protocol description).
 */

#include "recovery/membership.hh"

#include <algorithm>

#include "common/hash.hh"
#include "recovery/recovery_manager.hh"
#include "sim/kernel.hh"

namespace hades::recovery
{

MembershipManager::MembershipManager(protocol::System &sys,
                                     const RecoveryManager &recovery)
    : sys_(sys), recovery_(recovery), cfg_(sys.config.membership),
      member_(sys.config.numNodes, 0), draining_(sys.config.numNodes, 0)
{
    for (NodeId n = 0; n < cfg_.initialOwners(sys.config.numNodes); ++n)
        member_[n] = 1;
}

void
MembershipManager::start(std::uint64_t expected_drivers)
{
    driversLeft_ = expected_drivers;
    done_ = driversLeft_ == 0;
    opsPending_ =
        static_cast<std::uint32_t>(cfg_.joins.size() + cfg_.drains.size());
    for (const auto &j : cfg_.joins)
        joinLoop(j.node, j.at);
    for (const auto &d : cfg_.drains)
        drainLoop(d.node, d.at);
    resyncLoop();
}

bool
MembershipManager::recordBlocked(std::uint64_t record)
{
    // A decided remote write whose Validation is still on its way to
    // the old home has finished its attempt but not its write: moving
    // the record now would let a later attempt read the pre-write
    // value at the new home, and the late write would then overwrite
    // that attempt's (a lost update).
    if (applyInFlight(record)) {
        stats_.deferredMoves += 1;
        return true;
    }
    bool blocked = false;
    // Scan every coordinator's router shard (plus the control bucket,
    // for totality) for unfinished attempts that touched the record.
    for (NodeId n = 0; n <= sys_.config.numNodes; ++n) {
        for (const auto &[tx, ctrl] : sys_.routerForNode(n).active()) {
            if (ctrl->finished || ctrl->recordsTouched.count(record) == 0)
                continue;
            if (ctrl->pinned || ctrl->uncommittable ||
                ctrl->decisionRecorded) {
                // Cannot be squash-retried: it completes at the old
                // home; the move waits for it.
                blocked = true;
                continue;
            }
            // Squash-retry: the attempt unwinds without writing and
            // re-resolves record homes on retry. Delivered means the
            // victim had not reached its all-Acks point, so the move
            // may proceed in this very batch (the paper's "cannot be
            // squashed anymore" boundary, reused as the handoff fence).
            auto out = sys_.routerFor(tx).squash(
                sys_.kernel, tx, txn::SquashReason::StalePlacement);
            if (out != protocol::SquashOutcome::Delivered)
                blocked = true;
        }
    }
    if (blocked)
        stats_.deferredMoves += 1;
    return blocked;
}

NodeId
MembershipManager::pickDestination(std::uint64_t record, NodeId from) const
{
    std::vector<NodeId> cands;
    for (NodeId n = 0; n < sys_.config.numNodes; ++n)
        if (n != from && member_[n] != 0 && draining_[n] == 0 &&
            !sys_.network.nodeDead(n))
            cands.push_back(n);
    if (cands.empty())
        return sys_.config.numNodes;
    return cands[mix64(record ^ 0xd1a7eedULL) % cands.size()];
}

bool
MembershipManager::applyInFlight(std::uint64_t record) const
{
    // Ordered journal, small (decided-but-unapplied remote writes).
    for (const auto &kv : sys_.pendingApplies)
        if (kv.first.second == record)
            return true;
    return false;
}

void
MembershipManager::streamImage(std::uint64_t record)
{
    if (!sys_.replicas || sys_.config.recovery.testSkipImageResync)
        return;
    if (record & mem::Placement::kRegisteredBit)
        return; // index structures are never committed/replicated
    if (applyInFlight(record))
        return; // ground truth not current yet; the sweep catches up
    auto seq = sys_.replicas->lastCommittedSeq(record);
    if (!seq)
        return;
    const std::int64_t value = sys_.data.read(record);
    const NodeId primary = sys_.placement.homeOf(record);
    for (NodeId b : sys_.replicas->backupsOf(record, primary)) {
        auto img = sys_.replicas->store(b).durableImage(record);
        if (img && img->seq >= *seq)
            continue;
        sys_.replicas->store(b).installDurable(record, value, *seq);
        stats_.resyncImages += 1;
    }
}

void
MembershipManager::migrateRecord(std::uint64_t record, NodeId dst)
{
    const NodeId src = sys_.placement.homeOf(record);
    const std::uint32_t bytes =
        (record & mem::Placement::kRegisteredBit)
            ? sys_.placement.registeredBytesOf(record)
            : sys_.placement.recordBytes();
    // Epoch-fenced ownership handoff, atomic within this kernel event
    // (models the CM's durable placement update): metadata migrates
    // with the record, locks cleared -- no attempt holds the record
    // (recordBlocked ruled that out), so a cleared lock is correct.
    txn::RecordMeta meta = sys_.node(src).versions.peek(record);
    sys_.placement.rehome(record, dst, bytes);
    sys_.node(dst).versions.installMigrated(record, meta);
    // The wire transfer of the image rides a one-way Migrate copy.
    // hades-analyze: verb-reliability-ok (timing/accounting copy; the ownership transfer is applied atomically within this kernel event and redundancy is restored by streamImage/the resync sweep)
    sys_.network.post(net::MsgType::Migrate, src, dst, bytes, [] {});
    streamImage(record);
    stats_.recordsMigrated += 1;
}

std::vector<std::uint64_t>
MembershipManager::recordsHomedAt(NodeId node) const
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t r = 0; r < sys_.placement.numRecords(); ++r)
        if (sys_.placement.homeOf(r) == node)
            out.push_back(r);
    // Registered ids carry bit 63, so appending keeps `out` sorted.
    for (std::uint64_t rid : sys_.placement.registeredHomedAt(node))
        out.push_back(rid);
    return out;
}

sim::DetachedTask
MembershipManager::joinLoop(NodeId node, Tick at)
{
    co_await sim::Delay{sys_.kernel, at};
    if (sys_.network.nodeDead(node) || member_[node] != 0) {
        aborted_ = true;
        opsPending_ -= 1;
        co_return;
    }

    // Admission: an epoch boundary, atomic within this kernel event.
    // The joiner becomes a member (eligible migration target) and
    // enters the backup rings; in-flight data-plane copies of the old
    // epoch are fenced at delivery.
    member_[node] = 1;
    if (sys_.replicas)
        sys_.replicas->markPresent(node);
    sys_.network.advanceEpoch();
    const NodeId cm = recovery_.cmPrimary();
    if (cm != node && !sys_.network.nodeDead(cm) &&
        !sys_.network.nodeDead(node)) {
        // hades-analyze: verb-reliability-ok (timing/accounting copy; admission is applied atomically within this kernel event)
        sys_.network.post(net::MsgType::Migrate, cm, node, 64, [] {});
    }

    // The CM assigns the joiner a deterministic 1/m hash share of the
    // record space (m = member count after admission).
    std::uint32_t m = 0;
    for (NodeId n = 0; n < sys_.config.numNodes; ++n)
        m += member_[n] != 0;
    const std::uint64_t slot = m - 1;

    for (;;) {
        if (sys_.network.nodeDead(node)) {
            aborted_ = true;
            opsPending_ -= 1;
            co_return; // recovery re-homes whatever already moved here
        }
        std::vector<std::uint64_t> want;
        for (std::uint64_t r = 0; r < sys_.placement.numRecords(); ++r)
            if (mix64(r ^ 0x6a10b5ULL) % m == slot &&
                sys_.placement.homeOf(r) != node)
                want.push_back(r);
        if (want.empty())
            break;
        std::uint64_t moved = 0;
        for (std::size_t i = 0;
             i < want.size() && i < cfg_.migrateBatchRecords; ++i) {
            if (recordBlocked(want[i]))
                continue; // deferred to a later batch
            migrateRecord(want[i], node);
            ++moved;
        }
        if (moved) {
            stats_.migrationBatches += 1;
            sys_.network.advanceEpoch();
        }
        co_await sim::Delay{sys_.kernel, cfg_.migrateBatchInterval};
    }
    stats_.joinsCompleted += 1;
    opsPending_ -= 1;
}

sim::DetachedTask
MembershipManager::drainLoop(NodeId node, Tick at)
{
    co_await sim::Delay{sys_.kernel, at};
    if (sys_.network.nodeDead(node) || member_[node] == 0) {
        aborted_ = true;
        opsPending_ -= 1;
        co_return;
    }

    // Drain start: the node stops accepting new home-node work -- its
    // drivers stop issuing (issuesLoad) and no migration targets it
    // (pickDestination) -- at an epoch boundary.
    draining_[node] = 1;
    sys_.network.advanceEpoch();
    const NodeId cm = recovery_.cmPrimary();
    if (cm != node && !sys_.network.nodeDead(cm) &&
        !sys_.network.nodeDead(node)) {
        // hades-analyze: verb-reliability-ok (timing/accounting copy; the drain transition is applied atomically within this kernel event)
        sys_.network.post(net::MsgType::Migrate, cm, node, 64, [] {});
    }

    for (;;) {
        stats_.drainDurationEvents += 1;
        if (sys_.network.nodeDead(node)) {
            aborted_ = true;
            opsPending_ -= 1;
            co_return; // recovery's view change finishes the cleanup
        }
        std::vector<std::uint64_t> remaining = recordsHomedAt(node);
        if (remaining.empty() &&
            sys_.routerForNode(node).active().empty())
            break; // nothing homed, no coordinated attempt in flight
        std::uint64_t moved = 0;
        for (std::size_t i = 0;
             i < remaining.size() && i < cfg_.migrateBatchRecords; ++i) {
            if (recordBlocked(remaining[i]))
                continue; // deferred to a later batch
            NodeId dst = pickDestination(remaining[i], node);
            if (dst >= sys_.config.numNodes)
                continue; // no eligible survivor right now
            migrateRecord(remaining[i], dst);
            ++moved;
        }
        if (moved) {
            stats_.migrationBatches += 1;
            sys_.network.advanceEpoch();
        }
        co_await sim::Delay{sys_.kernel, cfg_.migrateBatchInterval};
    }

    // Leave: hand back the ring slots at an epoch boundary. The node's
    // residual hardware footprint is audited at end of run (it homes
    // nothing and coordinates nothing, so only in-flight cleanup
    // traffic may still graze it).
    member_[node] = 0;
    draining_[node] = 0;
    if (sys_.replicas)
        sys_.replicas->markAbsent(node);
    sys_.network.advanceEpoch();
    stats_.drainsCompleted += 1;
    opsPending_ -= 1;
}

std::uint64_t
MembershipManager::resyncPass()
{
    if (!sys_.replicas || sys_.config.recovery.testSkipImageResync)
        return 0;
    std::uint64_t installed = 0;
    for (std::uint64_t rec : sys_.data.touchedRecords()) {
        if (applyInFlight(rec))
            continue;
        auto seq = sys_.replicas->lastCommittedSeq(rec);
        if (!seq)
            continue;
        const std::int64_t value = sys_.data.read(rec);
        const NodeId primary = sys_.placement.homeOf(rec);
        for (NodeId b : sys_.replicas->backupsOf(rec, primary)) {
            auto img = sys_.replicas->store(b).durableImage(rec);
            if (img && img->seq >= *seq)
                continue;
            sys_.replicas->store(b).installDurable(rec, value, *seq);
            ++installed;
        }
    }
    stats_.resyncImages += installed;
    return installed;
}

sim::DetachedTask
MembershipManager::resyncLoop()
{
    // Ring transitions shift hash-rotated backup windows of unrelated
    // records, so the final redundancy state is only knowable once the
    // workload and every migration loop have quiesced.
    while (!done_ || opsPending_ > 0)
        co_await sim::Delay{sys_.kernel, cfg_.migrateBatchInterval};
    // Let journaled remote writes land so ground truth is current at
    // every home. Bounded wait: a write stranded behind a partition
    // that outlasts it must not hang the drain (such records are
    // skipped via applyInFlight, and the end-of-run audit reports the
    // unapplied journal entry).
    for (std::uint32_t i = 0; i < 64 && !sys_.pendingApplies.empty(); ++i)
        co_await sim::Delay{sys_.kernel, cfg_.migrateBatchInterval};
    resyncPass();
    resyncDone_ = true;
}

} // namespace hades::recovery
