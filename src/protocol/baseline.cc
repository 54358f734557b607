#include "protocol/baseline.hh"

#include <algorithm>
#include <set>

#include "common/log.hh"

namespace hades::protocol
{

using net::MsgType;
using txn::Overhead;
using txn::SquashReason;

namespace
{

/** Group request indices by home node, excluding @p local. */
std::map<NodeId, std::vector<std::size_t>>
groupRemote(const std::vector<NodeId> &homes, NodeId local)
{
    std::map<NodeId, std::vector<std::size_t>> g;
    for (std::size_t i = 0; i < homes.size(); ++i)
        if (homes[i] != local)
            g[homes[i]].push_back(i);
    return g;
}

} // namespace

void
BaselineEngine::releaseLocks(ExecCtx ctx, std::uint64_t self,
                             std::vector<WriteEntry> &writes)
{
    // Batch unlock messages per remote node; local unlocks are direct.
    // With faults on the unlocks ride the reliable channel (unlock is
    // owner-guarded, so replayed copies are no-ops) -- a lost unlock
    // would leak the lock forever.
    std::map<NodeId, std::vector<std::uint64_t>> remote_unlocks;
    for (auto &w : writes) {
        if (!w.locked)
            continue;
        w.locked = false;
        if (w.home == ctx.node) {
            sys_.node(w.home).versions.unlock(w.record, self);
        } else {
            remote_unlocks[w.home].push_back(w.record);
        }
    }
    for (auto &[node, records] : remote_unlocks) {
        auto recs = records; // copy into the handler
        NodeId home = node;
        reliablePost(
            MsgType::RdmaWrite, ctx.node, home,
            std::uint32_t(8 * recs.size()), [this, home, recs, self] {
                for (auto r : recs)
                    sys_.node(home).versions.unlock(r, self);
            });
    }
}

sim::Task
BaselineEngine::awaitFanout(
    std::shared_ptr<Fanout> fo,
    std::map<NodeId, std::vector<std::size_t>> by_node,
    std::function<void(NodeId, const std::vector<std::size_t> &)> repost)
{
    if (fo->pending.empty()) {
        fo->closed = true;
        co_return;
    }
    if (!faultsOn()) {
        co_await fo->wake.wait();
        fo->closed = true;
        co_return;
    }
    // Wake on either the last reply or a resend timer; the generation
    // counter discards timers from earlier rounds.
    auto gen = std::make_shared<std::uint32_t>(0);
    for (std::uint32_t round = 0;; ++round) {
        std::uint32_t g = ++*gen;
        sys_.kernel.schedule(resendTimeout(round), [this, fo, gen, g] {
            if (*gen == g && !fo->closed && !fo->pending.empty())
                fo->wake.notify(sys_.kernel);
        });
        co_await fo->wake.wait();
        if (fo->pending.empty())
            break;
        if (round >= sys_.config.tuning.maxCommitResends) {
            // Give up on the unresponsive nodes and fail the batch;
            // `closed` below makes any late deliveries inert.
            fo->anyFail = true;
            break;
        }
        for (NodeId n : fo->pending) {
            st().timeoutResends += 1;
            repost(n, by_node.at(n));
        }
    }
    fo->closed = true;
}

sim::Task
BaselineEngine::attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                        bool &committed)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    const auto &costs = sys_.config.costs;
    // The lock-owner id carries a per-attempt epoch, so a replayed
    // unlock/commit-write of attempt N can never touch the locks of
    // attempt N+1, and recovery's per-transaction state never aliases
    // across attempts.
    const std::uint64_t self = attemptId(ctx);
    const std::uint64_t audit_id =
        sys_.audit ? sys_.audit->begin(self) : 0;

    // Recovery on: register a control block with the squash router so
    // a view change can find this attempt (and resolve it in-doubt) if
    // this node dies mid-flight. The NodeDead unwind skips retire(), on
    // purpose: recovery owns the entry from that point.
    std::shared_ptr<AttemptControl> ctrl;
    if (recoveryOn()) {
        ctrl = std::make_shared<AttemptControl>();
        ctrl->auditId = audit_id;
        sys_.routerFor(self).add(self, ctrl.get());
        attempts_[self] = ctrl;
    }
    auto retire = [this, self, ctrl] {
        if (!ctrl)
            return;
        ctrl->finished = true;
        sys_.routerFor(self).remove(self);
        attempts_.erase(self);
    };

    // The sets are shared with the message handlers below: under
    // injected faults a delayed or duplicated delivery can outlive this
    // coroutine frame, so the handlers must not hold frame references.
    auto rs = std::make_shared<std::vector<ReadEntry>>();
    auto ws = std::make_shared<std::vector<WriteEntry>>();
    auto &read_set = *rs;
    auto &write_set = *ws;
    std::vector<std::int64_t> read_vals;

    // Squash bookkeeping of every abort path; the caller co_returns.
    auto abort = [&](SquashReason why) {
        st().addSquash(why);
        releaseLocks(ctx, self, write_set);
        if (sys_.audit)
            sys_.audit->noteAbort(audit_id);
        retire();
    };

    const Tick exec_start = kernel.now();

    // Fetch one whole record (data + metadata) from its home, capturing
    // the version/lock snapshot and, for reads, the value, at the
    // moment the memory is actually accessed.
    struct Snapshot
    {
        bool lockedByOther = false;
        std::uint64_t version = 0;
        std::int64_t value = 0;
        std::uint64_t gtVersion = 0; //!< ground truth, for the audit
    };
    auto fetch_record = [&](NodeId home, Addr base,
                            std::uint32_t record_lines,
                            std::uint64_t record,
                            Snapshot &snap) -> sim::Task {
        if (home == ctx.node) {
            Tick lat = accessLines(home, ctx.core, base, record_lines);
            co_await core.occupy(lat);
            const auto m = sys_.node(home).versions.peek(record);
            snap.lockedByOther =
                m.lockOwner != 0 && m.lockOwner != self;
            snap.version = m.version;
            snap.value = sys_.data.read(record);
            snap.gtVersion = sys_.data.version(record);
        } else {
            co_await core.occupy(cycles(costs.rdmaPostCycles));
            // The snapshot is always taken against the home's version
            // table (a hedge copy served by a backup is a wire
            // duplicate; repeated peeks are side-effect free).
            auto at_dst = [&]() -> Tick {
                const auto m = sys_.node(home).versions.peek(record);
                snap.lockedByOther =
                    m.lockOwner != 0 && m.lockOwner != self;
                snap.version = m.version;
                snap.value = sys_.data.read(record);
                snap.gtVersion = sys_.data.version(record);
                return nicAccessLines(home, base, record_lines);
            };
            net::HedgeSpec hedge;
            if (hedgeTarget(ctx, home, record, hedge)) {
                co_await sys_.network.hedgedRoundTrip(
                    MsgType::RdmaRead, ctx.node, home, hedge, 24,
                    record_lines * kCacheLineBytes, at_dst);
            } else {
                co_await sys_.network.roundTrip(
                    MsgType::RdmaRead, ctx.node, home, 24,
                    record_lines * kCacheLineBytes, at_dst);
            }
            co_await core.occupy(cycles(costs.rdmaPollCycles));
        }
    };

    // ---------------- Execution phase -------------------------------------
    co_await core.occupy(cycles(prog.setupCycles));
    for (const auto &req : prog.requests) {
        if (squashPending(ctx, ctrl.get())) {
            abort(ctrl->reason);
            co_return;
        }
        co_await core.occupy(cycles(prog.computeCyclesPerRequest));

        const NodeId home = sys_.placement.homeOf(req.record);
        const Addr base = sys_.placement.addrOf(req.record);
        const txn::RecordLayout lay = layoutOf(req);
        const std::uint32_t record_lines = lay.swLines();
        const std::uint32_t payload_lines = lay.payloadLines();

        // Index traversal reads: atomic, client-cached, unvalidated
        // (txn::Request::isIndex); the software still checks the node
        // image for torn reads.
        if (req.isIndex && !req.isWrite) {
            co_await indexRead(ctx, home,
                               AddrRange{base, lay.swBytes()});
            Tick ti = kernel.now();
            co_await core.occupy(cycles(
                std::int64_t(costs.atomicityCheckPerLineCycles) *
                lay.payloadLines()));
            st().addOverhead(Overhead::ReadAtomicity,
                               kernel.now() - ti);
            continue;
        }

        // Membership: publish the footprint so a migration batch
        // defers (and squash-retries) rather than moving a record this
        // attempt resolved a home for.
        if (ctrl && membershipOn())
            ctrl->recordsTouched.insert(req.record);

        // Read-your-own-write short circuit.
        auto wit = std::find_if(write_set.begin(), write_set.end(),
                                [&](const WriteEntry &w) {
                                    return w.record == req.record;
                                });
        if (wit != write_set.end()) {
            co_await core.occupy(cycles(costs.setWalkCycles));
            if (req.isWrite) {
                wit->value = req.writtenValue(read_vals);
            } else {
                read_vals.push_back(wit->value);
            }
            continue;
        }

        // Fetch the whole record (record granularity), re-reading a few
        // times if it is locked by a committing transaction.
        Snapshot snap;
        bool gave_up = false;
        Tick t0 = kernel.now();
        for (std::uint32_t tries = 0;; ++tries) {
            co_await fetch_record(home, base, record_lines, req.record,
                                  snap);
            if (!snap.lockedByOther)
                break;
            if (tries >= costs.lockedReadRetries) {
                gave_up = true;
                break;
            }
            co_await sim::Delay{kernel, ns(400)};
        }
        if (req.isWrite)
            st().addOverhead(Overhead::RdBeforeWr, kernel.now() - t0);
        if (gave_up) {
            abort(SquashReason::LockBusy);
            co_return;
        }

        if (req.isWrite) {
            const std::int64_t value = req.writtenValue(read_vals);
            // Buffer the write in the Write Set (copy the payload).
            t0 = kernel.now();
            co_await core.occupy(
                cycles(costs.setInsertCycles +
                       copyCycles(lay.payloadBytes())));
            st().addOverhead(Overhead::ManageSets, kernel.now() - t0);
            write_set.push_back(WriteEntry{req.record, home, value,
                                           lay.payloadBytes(), false});
        } else {
            // Read atomicity: compare the per-line versions VC_i of all
            // payload lines and copy out of the bounce buffer (reads
            // cannot be zero-copy in SW-Impl).
            t0 = kernel.now();
            co_await core.occupy(cycles(
                std::int64_t(costs.atomicityCheckPerLineCycles) *
                    payload_lines +
                copyCycles(lay.payloadBytes())));
            st().addOverhead(Overhead::ReadAtomicity,
                               kernel.now() - t0);

            // Index traversal reads are atomic but unvalidated (see
            // txn::Request::isIndex); only data reads join the Read Set.
            if (!req.isIndex) {
                t0 = kernel.now();
                co_await core.occupy(cycles(costs.setInsertCycles));
                st().addOverhead(Overhead::ManageSets,
                                   kernel.now() - t0);
                read_set.push_back(
                    ReadEntry{req.record, snap.version, home});
                read_vals.push_back(snap.value);
                if (sys_.audit)
                    sys_.audit->noteRead(audit_id, req.record,
                                         snap.gtVersion);
            }
        }
    }
    const Tick exec_end = kernel.now();

    // ---------------- Validation phase ------------------------------------
    // Step 1: lock the write set. Local locks via CAS; remote locks in
    // one batched RDMA CAS message per node, all batches in flight in
    // parallel (optimization 1).
    bool lock_failed = false;
    bool lock_timed_out = false;
    {
        Tick t0 = kernel.now();
        for (auto &w : write_set) {
            if (w.home != ctx.node)
                continue;
            co_await core.occupy(cycles(costs.localCasCycles));
            if (!sys_.node(w.home).versions.tryLock(w.record, self)) {
                lock_failed = true;
                break;
            }
            w.locked = true;
            if (sys_.audit)
                sys_.audit->noteLockAcquire(self);
        }
        if (!lock_failed) {
            std::vector<NodeId> homes;
            for (const auto &w : write_set)
                homes.push_back(w.home);
            auto by_node = groupRemote(homes, ctx.node);
            auto fo = std::make_shared<Fanout>();
            for (const auto &[node, idx_list] : by_node)
                fo->pending.insert(node);
            auto post_batch = [this, ws, fo, self, ctx](
                                  NodeId home,
                                  const std::vector<std::size_t>
                                      &idxs) {
                sys_.network.post(
                    MsgType::RdmaCas, ctx.node, home,
                    std::uint32_t(16 * idxs.size()),
                    [this, ws, fo, home, idxs, self, ctx] {
                        if (fo->closed)
                            return; // stale delivery of an old batch
                        auto &write_set = *ws;
                        bool ok = true;
                        std::vector<std::size_t> acquired;
                        for (auto i : idxs) {
                            auto &w = write_set[i];
                            if (sys_.node(home).versions.tryLock(
                                    w.record, self)) {
                                acquired.push_back(i);
                            } else {
                                ok = false;
                                for (auto j : acquired)
                                    sys_.node(home).versions.unlock(
                                        write_set[j].record, self);
                                acquired.clear();
                                break;
                            }
                        }
                        if (ok) {
                            for (auto i : acquired) {
                                write_set[i].locked = true;
                                if (sys_.audit)
                                    sys_.audit->noteLockAcquire(self);
                            }
                        }
                        // CAS response back to the coordinator.
                        sys_.network.post(
                            MsgType::RdmaCas, home, ctx.node,
                            std::uint32_t(8 * idxs.size()),
                            [this, fo, home, ok] {
                                fo->reply(sys_.kernel, home, ok);
                            });
                    });
            };
            for (const auto &[node, idx_list] : by_node) {
                co_await core.occupy(cycles(costs.rdmaPostCycles));
                post_batch(node, idx_list);
            }
            co_await awaitFanout(fo, by_node, post_batch);
            co_await core.occupy(
                cycles(std::int64_t(costs.rdmaPollCycles) *
                       std::int64_t(by_node.size())));
            lock_failed = fo->anyFail;
            lock_timed_out = !fo->pending.empty();
        }
        st().addOverhead(Overhead::ConflictDetection,
                           kernel.now() - t0);
    }
    if (lock_failed) {
        abort(lock_timed_out ? SquashReason::CommitTimeout
                             : SquashReason::LockBusy);
        co_return;
    }

    // Step 2: validate the read set by re-reading versions; the read
    // set is never locked (optimization 4). Remote batches fly in
    // parallel, one message per node.
    bool validation_failed = false;
    bool validation_timed_out = false;
    {
        Tick t0 = kernel.now();
        for (const auto &r : read_set) {
            if (r.home != ctx.node)
                continue;
            Tick lat = accessLines(r.home, ctx.core,
                                   sys_.placement.addrOf(r.record), 1);
            co_await core.occupy(lat +
                                 cycles(costs.versionCompareCycles));
            const auto m = sys_.node(r.home).versions.peek(r.record);
            if (m.version != r.version ||
                (m.lockOwner != 0 && m.lockOwner != self)) {
                validation_failed = true;
                break;
            }
        }
        if (!validation_failed) {
            std::vector<NodeId> homes;
            for (const auto &r : read_set)
                homes.push_back(r.home);
            auto by_node = groupRemote(homes, ctx.node);
            auto fo = std::make_shared<Fanout>();
            for (const auto &[node, idx_list] : by_node)
                fo->pending.insert(node);
            // The version peeks always run against the home's table
            // even when a hedge copy is served by a backup replica
            // (@p server): peeks are side-effect free, the fanout
            // absorbs duplicate replies per home, and the serial
            // executor (faults on) makes the cross-lane read safe.
            auto post_batch_to = [this, rs, fo, self, ctx](
                                     NodeId home, NodeId server,
                                     const std::vector<std::size_t>
                                         &idxs) {
                sys_.network.post(
                    MsgType::RdmaRead, ctx.node, server,
                    std::uint32_t(8 * idxs.size()),
                    [this, rs, fo, home, server, idxs, self, ctx] {
                        if (fo->closed)
                            return; // stale delivery of an old batch
                        auto &read_set = *rs;
                        bool ok = true;
                        for (auto i : idxs) {
                            const auto &r = read_set[i];
                            nicAccessLines(
                                server, sys_.placement.addrOf(r.record),
                                1);
                            const auto m =
                                sys_.node(home).versions.peek(
                                    r.record);
                            if (m.version != r.version ||
                                (m.lockOwner != 0 &&
                                 m.lockOwner != self))
                                ok = false;
                        }
                        sys_.network.post(
                            MsgType::RdmaRead, server, ctx.node,
                            std::uint32_t(16 * idxs.size()),
                            [this, fo, home, ok] {
                                fo->reply(sys_.kernel, home, ok);
                            });
                    });
            };
            auto post_batch = [post_batch_to](
                                  NodeId home,
                                  const std::vector<std::size_t>
                                      &idxs) {
                post_batch_to(home, home, idxs);
            };
            for (const auto &[node, idx_list] : by_node) {
                co_await core.occupy(cycles(costs.rdmaPostCycles));
                post_batch(node, idx_list);
                // Validation hedge: when the home looks slow, race a
                // duplicate batch against a backup replica after a
                // short wait; whichever reply lands first settles the
                // fanout slot (duplicates are absorbed).
                net::HedgeSpec hedge;
                if (!idx_list.empty() &&
                    hedgeTarget(ctx, node,
                                read_set[idx_list.front()].record,
                                hedge)) {
                    sys_.kernel.schedule(
                        hedge.delay,
                        [this, fo, post_batch_to, home = node,
                         backup = hedge.backup, idxs = idx_list] {
                            if (fo->closed ||
                                fo->pending.count(home) == 0 ||
                                sys_.network.nodeDead(backup))
                                return;
                            sys_.network.noteHedgedSend();
                            post_batch_to(home, backup, idxs);
                        });
                }
            }
            co_await awaitFanout(fo, by_node, post_batch);
            std::uint64_t remote_reads = 0;
            for (const auto &r : read_set)
                remote_reads += r.home != ctx.node ? 1 : 0;
            co_await core.occupy(
                cycles(std::int64_t(costs.rdmaPollCycles) *
                           std::int64_t(by_node.size()) +
                       std::int64_t(costs.versionCompareCycles) *
                           std::int64_t(remote_reads)));
            validation_failed = fo->anyFail;
            validation_timed_out = !fo->pending.empty();
        }
        st().addOverhead(Overhead::ConflictDetection,
                           kernel.now() - t0);
    }
    if (validation_failed) {
        abort(validation_timed_out ? SquashReason::CommitTimeout
                                   : SquashReason::ValidationFailure);
        co_return;
    }
    if (squashPending(ctx, ctrl.get())) {
        abort(ctrl->reason);
        co_return;
    }
    // Validated: from here the attempt commits unless replica staging
    // fails, so the router reports it Uncommittable and a membership
    // handoff waits for it instead of moving its records.
    if (ctrl)
        ctrl->uncommittable = true;

    // ---------------- Replica staging (recovery configured only) ------------
    // Section V-A adapted to SW-Impl: with the write set locked and the
    // read set validated, stage every write at its backups and wait for
    // their persistence Acks before deciding. A missing Ack (lost
    // message or dead backup) aborts the attempt. Gated on the recovery
    // subsystem: the Baseline had no replication before crash recovery
    // existed, and recovery-off runs keep their original timing.
    ReplicaPlan replicas;
    if (sys_.replicas && recoveryOn()) {
        for (const auto &w : write_set)
            planReplicas(replicas, w.record, w.home, w.value);
    }
    if (!replicas.empty()) {
        Tick t0 = kernel.now();
        const std::size_t backups = replicas.size();
        auto acked = std::make_shared<std::set<NodeId>>();
        auto timed_out = std::make_shared<bool>(false);
        auto c = ctrl; // keep-alive for the handlers below
        stageReplicas(
            ctx, self, replicas,
            [this, acked, c, backups](NodeId b) {
                // A replayed staging Ack inserts nothing.
                if (!c->finished && acked->insert(b).second &&
                    acked->size() == backups)
                    c->wake.notify(sys_.kernel);
            },
            [this, acked, c, backups, timed_out] {
                if (acked->size() < backups) {
                    *timed_out = true;
                    c->wake.notify(sys_.kernel);
                }
            });
        while (acked->size() < backups && !*timed_out) {
            co_await ctrl->wake.wait();
            if (sys_.network.nodeDead(ctx.node))
                throw sim::NodeDead{};
        }
        st().addOverhead(Overhead::ConflictDetection, kernel.now() - t0);
        if (acked->size() < backups) {
            // Staging incomplete: abort and drop whatever landed.
            settleReplicas(ctx, self, replicas, MsgType::RdmaWrite,
                           std::nullopt);
            abort(SquashReason::ReplicaTimeout);
            co_return;
        }
    }
    const Tick validation_end = kernel.now();

    // ---------------- Commit phase -----------------------------------------
    // Local writes: apply value + bump version + unlock atomically (one
    // simulated instant), then charge the time.
    {
        // Serialization point (recovery on): the decision record, the
        // local applies below, the staged-image promotions and the
        // remote-write journal all land in this one resumption, so
        // recovery observes either no decision (safe to abort -- the
        // client was never acked) or a fully recorded one.
        if (recoveryOn()) {
            std::uint64_t commit_seq = 0;
            if (sys_.replicas) {
                commit_seq = sys_.replicas->nextCommitSeq();
                ctrl->commitSeq = commit_seq;
                // hades-analyze: epoch-fence-ok (coordinator's own-attempt journal entry; stale deliveries are fenced by Network::advanceEpoch, and the in-doubt scan resolves entries by attempt id)
                sys_.decisionLog[self] = commit_seq;
                for (const auto &w : write_set)
                    sys_.replicas->noteCommittedWrite(w.record,
                                                      commit_seq);
            }
            ctrl->decisionRecorded = true;
            settleReplicas(ctx, self, replicas, MsgType::RdmaWrite,
                           commit_seq);
            // Journal the decided remote writes: if a commit-write
            // message below never lands (either endpoint crashes
            // permanently), the view change replays the entry.
            for (const auto &w : write_set)
                if (w.home != ctx.node)
                    // hades-analyze: epoch-fence-ok (coordinator's own-attempt journal entry; stale deliveries are fenced by Network::advanceEpoch and replay is idempotent per record)
                    sys_.pendingApplies[{self, w.record}] =
                        PendingApply{w.home, w.value, audit_id};
        }
        std::int64_t local_cycles = 0;
        Tick mem_ticks = 0;
        Tick t_manage = 0, t_version = 0;
        for (auto &w : write_set) {
            if (w.home != ctx.node)
                continue;
            std::uint64_t v = sys_.data.write(w.record, w.value);
            if (sys_.audit)
                sys_.audit->noteWrite(audit_id, w.record, v);
            sys_.node(w.home).versions.bumpVersion(w.record);
            sys_.node(w.home).versions.unlock(w.record, self);
            w.locked = false;
            t_manage += cycles(costs.setWalkCycles +
                               copyCycles(w.payloadBytes));
            t_version += cycles(costs.versionUpdateCycles);
            local_cycles += costs.localCasCycles; // unlock CAS
            mem_ticks += accessLines(
                w.home, ctx.core, sys_.placement.addrOf(w.record),
                txn::RecordLayout{w.payloadBytes}.payloadLines());
        }
        st().addOverhead(Overhead::ManageSets, t_manage);
        st().addOverhead(Overhead::UpdateVersion, t_version);
        co_await core.occupy(t_manage + t_version +
                             cycles(local_cycles) + mem_ticks);

        // Remote writes: one unserialized message per node carrying the
        // data, version updates, and unlocks (optimizations 2 and 3: no
        // waiting for completion).
        std::vector<NodeId> homes;
        for (const auto &w : write_set)
            homes.push_back(w.home);
        auto by_node = groupRemote(homes, ctx.node);
        for (auto &[node, idxs] : by_node) {
            NodeId home = node;
            std::vector<WriteEntry> payload;
            std::uint64_t batch_bytes = 0;
            for (auto i : idxs) {
                payload.push_back(write_set[i]);
                write_set[i].locked = false;
                batch_bytes += write_set[i].payloadBytes + 16;
            }
            Tick t0 = kernel.now();
            co_await core.occupy(
                cycles(costs.rdmaPostCycles +
                       std::int64_t(costs.setWalkCycles) *
                           std::int64_t(idxs.size()) +
                       copyCycles(batch_bytes)));
            st().addOverhead(Overhead::ManageSets, kernel.now() - t0);
            // Faults on: the commit write must eventually arrive (it
            // both applies the data and releases the locks), so it
            // rides the reliable channel. The first delivered copy
            // releases the lock, so a replayed copy is skipped by the
            // owner check (self is epoch-unique: no ABA with later
            // attempts of the same context).
            reliablePost(
                MsgType::RdmaWrite, ctx.node, home,
                std::uint32_t(batch_bytes),
                [this, home, payload, self, audit_id] {
                    for (const auto &w : payload) {
                        if (faultsOn() &&
                            sys_.node(home).versions.peek(w.record)
                                    .lockOwner != self)
                            continue;
                        std::uint64_t v =
                            sys_.data.write(w.record, w.value);
                        if (sys_.audit)
                            sys_.audit->noteWrite(audit_id, w.record,
                                                  v);
                        sys_.node(home).versions.bumpVersion(w.record);
                        sys_.node(home).versions.unlock(w.record, self);
                        nicAccessLines(
                            home, sys_.placement.addrOf(w.record),
                            txn::RecordLayout{w.payloadBytes}
                                .payloadLines());
                        if (recoveryOn())
                            // hades-analyze: epoch-fence-ok (journal retirement keyed by attempt id; a view change that already replayed the entry makes this erase a no-op)
                            sys_.pendingApplies.erase(
                                {self, w.record});
                    }
                });
        }
    }
    const Tick commit_end = kernel.now();

    st().execPhase.add(double(exec_end - exec_start));
    st().validationPhase.add(double(validation_end - exec_end));
    st().commitPhase.add(double(commit_end - validation_end));
    committed = true;
    if (sys_.audit)
        sys_.audit->noteCommit(audit_id);
    retire();
}

sim::Task
BaselineEngine::attemptPessimistic(ExecCtx ctx,
                                   const txn::TxnProgram &prog)
{
    ensureSerialForLockMode();
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    const auto &costs = sys_.config.costs;
    const std::uint64_t self = attemptId(ctx);
    const std::uint64_t audit_id =
        sys_.audit ? sys_.audit->begin(self) : 0;

    // Recovery on: register with the squash router so a view change
    // can abort this attempt (and drain its locks) if this node dies.
    std::shared_ptr<AttemptControl> ctrl;
    if (recoveryOn()) {
        ctrl = std::make_shared<AttemptControl>();
        ctrl->auditId = audit_id;
        sys_.routerFor(self).add(self, ctrl.get());
        attempts_[self] = ctrl;
    }

    co_await acquireFallbackToken(ctx);

    // Lock every data record the transaction touches, in record-id
    // order (deadlock-free), waiting rather than aborting. Index
    // records are read-only and never locked.
    std::vector<std::uint64_t> records;
    for (const auto &r : prog.requests)
        if (!r.isIndex)
            records.push_back(r.record);
    std::sort(records.begin(), records.end());
    records.erase(std::unique(records.begin(), records.end()),
                  records.end());

    // Membership: pin the whole footprint up front -- the lock-all
    // fallback cannot be squash-retried, so migration must defer every
    // record it holds (or will hold) until this attempt finishes.
    if (ctrl && membershipOn()) {
        ctrl->pinned = true;
        for (auto rec : records)
            ctrl->recordsTouched.insert(rec);
    }

    for (auto rec : records) {
        for (;;) {
            // Re-resolve the home every round: a view change may have
            // re-homed the record away from a dead node mid-wait.
            NodeId home = sys_.placement.homeOf(rec);
            bool got = false;
            if (home == ctx.node) {
                co_await core.occupy(cycles(costs.localCasCycles));
                got = sys_.node(home).versions.tryLock(rec, self);
            } else {
                co_await core.occupy(cycles(costs.rdmaPostCycles));
                co_await sys_.network.roundTrip(
                    MsgType::RdmaCas, ctx.node, home, 16, 8,
                    [&]() -> Tick {
                        got = sys_.node(home).versions.tryLock(rec,
                                                               self);
                        return sys_.cycles(20);
                    });
            }
            if (got) {
                if (sys_.audit)
                    sys_.audit->noteLockAcquire(self);
                break;
            }
            co_await sim::Delay{kernel, cycles(500)};
            if (sys_.network.nodeDead(ctx.node))
                throw sim::NodeDead{};
        }
    }

    // Execute with all permissions held. Recovery on: writes are
    // buffered and applied in one atomic instant at the end (below), so
    // a crash mid-execution leaves ground truth untouched and recovery
    // can abort the attempt cleanly -- incremental applies would be
    // unrecoverable, as the not-yet-computed tail of the write set only
    // exists in this (dead) coroutine frame. Recovery off keeps the
    // original incremental applies.
    struct BufferedWrite
    {
        std::uint64_t record;
        NodeId home;
        std::int64_t value;
    };
    std::vector<BufferedWrite> buffered;
    std::vector<std::int64_t> read_vals;
    for (const auto &req : prog.requests) {
        co_await core.occupy(cycles(prog.computeCyclesPerRequest));
        NodeId home = sys_.placement.homeOf(req.record);
        Addr base = sys_.placement.addrOf(req.record);
        const txn::RecordLayout lay = layoutOf(req);
        if (req.isIndex && !req.isWrite) {
            co_await indexRead(ctx, home,
                               AddrRange{base, lay.swBytes()});
            continue;
        }
        if (home == ctx.node) {
            co_await core.occupy(accessLines(home, ctx.core, base,
                                             lay.swLines()));
        } else {
            co_await sys_.network.roundTrip(
                MsgType::RdmaRead, ctx.node, home, 24,
                lay.swLines() * kCacheLineBytes, [&]() -> Tick {
                    return nicAccessLines(home, base, lay.swLines());
                });
        }
        if (req.isWrite) {
            const std::int64_t value = req.writtenValue(read_vals);
            if (recoveryOn()) {
                buffered.push_back(
                    BufferedWrite{req.record, home, value});
            } else {
                std::uint64_t v = sys_.data.write(req.record, value);
                if (sys_.audit)
                    sys_.audit->noteWrite(audit_id, req.record, v);
                sys_.node(home).versions.bumpVersion(req.record);
            }
        } else {
            // Read-your-own-write: a buffered value shadows ground
            // truth (which has not been updated yet in buffered mode).
            auto bit = std::find_if(buffered.rbegin(), buffered.rend(),
                                    [&](const BufferedWrite &w) {
                                        return w.record == req.record;
                                    });
            if (bit != buffered.rend()) {
                read_vals.push_back(bit->value);
            } else {
                read_vals.push_back(sys_.data.read(req.record));
                if (sys_.audit)
                    sys_.audit->noteRead(audit_id, req.record,
                                         sys_.data.version(req.record));
            }
        }
    }

    // Recovery on: serialization point. The decision record, all
    // ground-truth applies, version bumps and backup images land in one
    // kernel event -- the record-level equivalents of the messages this
    // saves are a model shortcut the lock-all fallback already takes
    // for its incremental remote applies.
    if (recoveryOn() && !buffered.empty()) {
        std::uint64_t commit_seq = 0;
        if (sys_.replicas) {
            commit_seq = sys_.replicas->nextCommitSeq();
            // hades-analyze: epoch-fence-ok (coordinator's own-attempt journal entry; stale deliveries are fenced by Network::advanceEpoch, and the in-doubt scan resolves entries by attempt id)
            sys_.decisionLog[self] = commit_seq;
            for (const auto &w : buffered)
                sys_.replicas->noteCommittedWrite(w.record, commit_seq);
        }
        if (ctrl) {
            ctrl->commitSeq = commit_seq;
            ctrl->decisionRecorded = true;
        }
        for (auto it = buffered.begin(); it != buffered.end(); ++it) {
            const auto &w = *it;
            std::uint64_t v = sys_.data.write(w.record, w.value);
            if (sys_.audit)
                sys_.audit->noteWrite(audit_id, w.record, v);
            sys_.node(w.home).versions.bumpVersion(w.record);
            // One durable image per record at this commit_seq: a record
            // written twice installs only its last (final) value.
            const bool last_write = std::none_of(
                it + 1, buffered.end(), [&](const BufferedWrite &o) {
                    return o.record == w.record;
                });
            if (sys_.replicas && last_write) {
                for (NodeId b :
                     sys_.replicas->backupsOf(w.record, w.home))
                    sys_.replicas->store(b).installDurable(
                        w.record, w.value, commit_seq);
            }
        }
        if (sys_.replicas)
            sys_.replicas->noteCommit();
    }

    // Unlock everything (batched per node, unserialized).
    std::map<NodeId, std::vector<std::uint64_t>> by_node;
    for (auto rec : records)
        by_node[sys_.placement.homeOf(rec)].push_back(rec);
    for (auto &[node, recs] : by_node) {
        NodeId home = node;
        if (home == ctx.node) {
            for (auto rec : recs) {
                co_await core.occupy(cycles(costs.localCasCycles));
                sys_.node(home).versions.unlock(rec, self);
            }
        } else {
            auto payload = recs;
            reliablePost(MsgType::RdmaWrite, ctx.node, home,
                         std::uint32_t(8 * payload.size()),
                         [this, home, payload, self] {
                             for (auto rec : payload)
                                 sys_.node(home).versions.unlock(
                                     rec, self);
                         });
        }
    }
    releaseFallbackToken();
    if (sys_.audit)
        sys_.audit->noteCommit(audit_id);
    if (ctrl) {
        ctrl->finished = true;
        sys_.routerFor(self).remove(self);
        attempts_.erase(self);
    }
}

} // namespace hades::protocol
