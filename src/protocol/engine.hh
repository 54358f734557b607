/**
 * @file
 * Abstract transaction engine interface plus the timing helpers shared
 * by the three protocol implementations (Baseline / HADES / HADES-H).
 */

#ifndef HADES_PROTOCOL_ENGINE_HH_
#define HADES_PROTOCOL_ENGINE_HH_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "protocol/system.hh"
#include "sim/task.hh"
#include "txn/program.hh"
#include "txn/record.hh"
#include "txn/txn_stats.hh"

namespace hades::protocol
{

/** Thrown inside an attempt coroutine when the attempt is squashed. */
struct Squashed
{
    txn::SquashReason reason;
};

/** Which of the three evaluated configurations an engine implements. */
enum class EngineKind
{
    Baseline,
    Hades,
    HadesHybrid,
};

inline const char *
engineKindName(EngineKind k)
{
    switch (k) {
      case EngineKind::Baseline:
        return "Baseline";
      case EngineKind::Hades:
        return "HADES";
      case EngineKind::HadesHybrid:
        return "HADES-H";
      default:
        return "?";
    }
}

/**
 * Shared state of one batched fan-out awaiting one reply per node
 * (Baseline lock / validation batches). Replies are idempotent per
 * node, so duplicated or retransmitted response deliveries cannot
 * over-release the waiter; `closed` discards replies that arrive after
 * the coordinator abandoned the batch. The waiter is notified exactly
 * when the pending set empties, mirroring CountdownLatch's fault-free
 * event sequence.
 */
// hades-analyze: lane-escape-ok (coordinator-lane state: remote handlers never touch the tracker directly, they post the reply back to the coordinator, whose delivery handler calls reply() on the coordinator's own lane)
struct Fanout
{
    /** Ordered: resend paths iterate the survivors, and that order
     *  reaches message timing under faults. */
    std::set<NodeId> pending;
    bool anyFail = false;
    bool closed = false;
    sim::AutoResetEvent wake;

    void
    reply(sim::Kernel &kernel, NodeId node, bool ok)
    {
        if (closed || pending.erase(node) == 0)
            return; // stale batch or duplicate reply
        if (!ok)
            anyFail = true;
        if (pending.empty())
            wake.notify(kernel);
    }
};

/** A distributed transaction protocol implementation. */
class TxnEngine
{
  public:
    /** @p payload_bytes is the payload size of the run's records. */
    TxnEngine(System &sys, std::uint32_t payload_bytes)
        : sys_(sys), layout_(payload_bytes),
          statsByNode_(sys.config.numNodes + 1),
          epochsByNode_(sys.config.numNodes)
    {
    }
    virtual ~TxnEngine() = default;

    virtual EngineKind kind() const = 0;
    const char *name() const { return engineKindName(kind()); }

    /**
     * Execute one transaction to commit: the retry driver all engines
     * share. A squashed attempt is retried after the admission retry
     * gate and a backoff; after maxSquashesBeforeLockMode squashes the
     * transaction commits through the engine's pessimistic fallback.
     */
    sim::Task
    run(ExecCtx ctx, const txn::TxnProgram &prog)
    {
        const Tick start = sys_.kernel.now();
        std::uint32_t squash_count = 0;
        for (;;) {
            throwIfNodeDead(ctx);
            st().attempts += 1;
            bool committed = false;
            co_await attempt(ctx, prog, committed);
            if (committed)
                break;
            squash_count += 1;
            co_await retryGate(ctx);
            if (squash_count >=
                sys_.config.tuning.maxSquashesBeforeLockMode) {
                st().lockModeFallbacks += 1;
                co_await attemptPessimistic(ctx, prog);
                break;
            }
            co_await sim::Delay{sys_.kernel, backoff(squash_count)};
        }
        st().committed += 1;
        st().latency.add(std::uint64_t(sys_.kernel.now() - start));
    }

    /**
     * Aggregate statistics over the whole run. Counters are kept in
     * per-node buckets (so each shard lane only touches its own nodes'
     * buckets) and merged on read; the merge is bit-exact because every
     * accumulated sample is an integer-valued double far below 2^53.
     */
    txn::EngineStats
    stats() const
    {
        txn::EngineStats out;
        for (const auto &s : statsByNode_)
            out.merge(s);
        return out;
    }

    /** The system this engine runs against (recovery operates on it). */
    System &system() { return sys_; }

    /**
     * Crash-recovery hook: @p node was declared permanently dead by a
     * view change. Releases the pessimistic-fallback token if the dead
     * node held it, so surviving fallback transactions make progress.
     */
    void
    onNodeDead(NodeId node)
    {
        if (tokenBusy_ && tokenOwner_ == node)
            tokenBusy_ = false;
    }

    /** Record one admission-control shed of a would-be transaction at
     *  @p node (the driver calls this when admit() refuses; the
     *  transaction never starts, so no attempt is charged). */
    void
    noteShed(NodeId node)
    {
        statsByNode_[node < sys_.config.numNodes ? node
                                                 : sys_.config.numNodes]
            .addSquash(txn::SquashReason::Shed);
    }

  protected:
    /** One optimistic attempt; sets @p committed when it commits and
     *  returns normally when it was squashed. */
    virtual sim::Task attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                              bool &committed) = 0;

    /** Pessimistic fallback after repeated squashes (Section VI):
     *  always commits. */
    virtual sim::Task attemptPessimistic(ExecCtx ctx,
                                         const txn::TxnProgram &prog) = 0;

    /**
     * Take the cluster-wide pessimistic-fallback token, waiting while
     * another fallback holds it. The token serializes fallbacks:
     * concurrent lock-all transactions convoy on skewed workloads.
     * The holder is recorded so onNodeDead can free a dead holder's
     * token.
     */
    sim::Task
    acquireFallbackToken(ExecCtx ctx)
    {
        while (tokenBusy_) {
            co_await sim::Delay{sys_.kernel, us(1)};
            // Fail-stop: the pure-Delay wait has no occupy() to throw
            // for us, so check for our own death explicitly.
            if (sys_.network.nodeDead(ctx.node))
                throw sim::NodeDead{};
        }
        tokenBusy_ = true;
        tokenOwner_ = ctx.node;
    }

    void releaseFallbackToken() { tokenBusy_ = false; }

    /** Core compute resource of a context. */
    sim::ComputeResource &
    coreOf(const ExecCtx &ctx)
    {
        return *sys_.node(ctx.node).cores[ctx.core];
    }

    Tick cycles(std::int64_t n) const { return sys_.cycles(n); }

    /**
     * Timed multi-line access from a core: the first line pays the full
     * hierarchy latency; subsequent lines stream behind it.
     */
    Tick
    accessLines(NodeId node, CoreId core, Addr base, std::uint32_t lines)
    {
        if (lines == 0)
            return 0;
        auto &memsys = sys_.node(node).memory;
        Tick worst = 0;
        for (std::uint32_t i = 0; i < lines; ++i) {
            Addr line = lineAddr(base) + Addr{i} * kCacheLineBytes;
            worst = std::max(worst, memsys.access(core, line).latency);
        }
        return worst + Tick(lines - 1) * cycles(kStreamCycles);
    }

    /** Timed multi-line access by a NIC servicing an RDMA request. */
    Tick
    nicAccessLines(NodeId node, Addr base, std::uint32_t lines)
    {
        if (lines == 0)
            return 0;
        auto &memsys = sys_.node(node).memory;
        Tick worst = 0;
        for (std::uint32_t i = 0; i < lines; ++i) {
            Addr line = lineAddr(base) + Addr{i} * kCacheLineBytes;
            worst = std::max(worst, memsys.nicAccess(line).latency);
        }
        return worst + Tick(lines - 1) * cycles(kStreamCycles);
    }

    /** Cycle cost of copying @p bytes in software. */
    std::int64_t
    copyCycles(std::uint64_t bytes) const
    {
        const auto &c = sys_.config.costs;
        return std::int64_t(bytes / std::max(1u, c.copyBytesPerCycle)) + 1;
    }

    /** Exponential backoff with jitter before a retry. */
    Tick
    backoff(std::uint32_t attempt)
    {
        std::uint32_t shift = std::min(attempt, 6u);
        std::int64_t base =
            std::int64_t(sys_.config.tuning.retryBackoffBaseCycles) << shift;
        return cycles(base + std::int64_t(sys_.rng().below(
                                 std::uint64_t(base) + 1)));
    }

    /** Uniform Find-LLC-Tags latency in [min, max] cycles (Table III). */
    Tick
    findTagsLatency()
    {
        const auto &cfg = sys_.config;
        std::uint32_t span = cfg.findTagsMaxCycles -
                             cfg.findTagsMinCycles + 1;
        return cycles(cfg.findTagsMinCycles +
                      std::int64_t(sys_.rng().below(span)));
    }

    /**
     * Timed read of a read-only index structure homed at @p home with
     * client-side caching (standard practice in FaRM-family stores:
     * internal index nodes are cached at the client, and the structures
     * are immutable between resize epochs, so the reads need no
     * conflict tracking). Resident lines are served from the local
     * hierarchy; missing lines are fetched with one RDMA read and then
     * fill the local caches.
     */
    sim::Task
    indexRead(ExecCtx ctx, NodeId home, AddrRange range)
    {
        auto &core = coreOf(ctx);
        auto &mem = sys_.node(ctx.node).memory;
        std::vector<Addr> missing;
        for (Addr line = range.firstLine(); line <= range.lastLine();
             line += kCacheLineBytes) {
            if (home == ctx.node) {
                co_await core.occupy(
                    mem.access(ctx.core, line).latency);
            } else if (auto acc = mem.cachedAccess(ctx.core, line)) {
                co_await core.occupy(acc->latency);
            } else {
                missing.push_back(line);
            }
        }
        if (missing.empty())
            co_return;
        co_await core.occupy(cycles(sys_.config.costs.rdmaPostCycles));
        co_await sys_.network.roundTrip(
            net::MsgType::RdmaRead, ctx.node, home, 24,
            std::uint32_t(missing.size()) * kCacheLineBytes,
            [&]() -> Tick {
                Tick t = 0;
                for (Addr l : missing)
                    t += sys_.node(home).memory.nicAccess(l).latency /
                         4;
                return t;
            });
        for (Addr l : missing)
            mem.access(ctx.core, l); // fill the local caches
    }

    /** Layout of the record a request targets (index nodes carry their
     *  own size; data records use the run default layout_). */
    txn::RecordLayout
    layoutOf(const txn::Request &req) const
    {
        return req.recordPayloadBytes
                   ? txn::RecordLayout{req.recordPayloadBytes}
                   : layout_;
    }

    /** True when the fault-injection layer is active. Every recovery
     *  code path (timers, resends, extra Acks) is gated on this so
     *  fault-free runs stay bit-identical to the pre-fault simulator. */
    bool faultsOn() const { return sys_.config.faults.enabled; }

    /** True when the crash-recovery subsystem is configured; the
     *  engines mirror write sets / participants into AttemptControl
     *  only under this gate (fault-free runs stay untouched). */
    bool recoveryOn() const { return sys_.config.recovery.enabled; }

    /** True when elastic membership (planned joins/drains with live
     *  record migration) is configured; the engines record each
     *  attempt's record footprint into AttemptControl only under this
     *  gate, so membership-free runs stay bit-identical. Quarantine
     *  (SLO-triggered drains) reuses the migration machinery, so it
     *  needs the same footprints even without scheduled joins/drains. */
    bool
    membershipOn() const
    {
        return sys_.config.membership.enabled() ||
               (sys_.config.slo.enabled && sys_.config.slo.quarantine);
    }

    /**
     * Hedging decision for a remote access of @p record homed at
     * @p home, coordinated from @p ctx.node: fill @p out and return
     * true when the SLO tracker classifies the home as Suspect (or
     * worse) and a live backup replica exists to duplicate the request
     * to. The hedge copy runs the same destination handler as the
     * primary copy -- exactly a wire duplicate with an alternate path,
     * which the protocol already absorbs (idempotent delivery) -- so
     * home-side conflict tracking is never bypassed.
     */
    bool
    hedgeTarget(const ExecCtx &ctx, NodeId home, std::uint64_t record,
                net::HedgeSpec &out)
    {
        if (!sys_.slo || !sys_.slo->config().hedgeReads ||
            !sys_.replicas || home == ctx.node)
            return false;
        if (sys_.slo->classify(ctx.node, home) ==
            net::PeerHealth::Healthy)
            return false;
        for (NodeId b : sys_.replicas->backupsOf(record, home)) {
            if (b == ctx.node || b == home ||
                sys_.network.nodeDead(b))
                continue;
            out.backup = b;
            out.delay = sys_.config.netRoundTrip *
                        Tick(sys_.slo->config().hedgeDelayPct) / 100;
            return true;
        }
        return false;
    }

    /** Section V-A replica plan: each backup and the (record, value)
     *  updates it stages. Ordered: staging, promotion and discard
     *  iterate it, and the order reaches message timing. */
    using ReplicaPlan = std::map<
        NodeId, std::vector<std::pair<std::uint64_t, std::int64_t>>>;

    /** Add the write of @p value to @p record (homed at @p home) to the
     *  plan of each of the record's backups. */
    void
    planReplicas(ReplicaPlan &plan, std::uint64_t record, NodeId home,
                 std::int64_t value) const
    {
        for (NodeId b : sys_.replicas->backupsOf(record, home))
            plan[b].emplace_back(record, value);
    }

    /**
     * Section V-A staging of attempt @p id: each backup of @p plan
     * stages its updates in temporary durable storage, persists them
     * and Acks. Every delivered Ack feeds the SLO tracker (hedge wins
     * attribute read samples to the fast replica, so without these the
     * tracker is blind to a slow backup) and then runs @p on_ack(b),
     * which must absorb replayed Acks. A lost update (failure
     * injection) never Acks; @p on_deadline runs at the staging
     * deadline whatever arrived.
     *
     * The deadline adapts to the SLO: the base is stretched by the
     * worst observed slowness across every peer the attempt's ack
     * counter awaits -- the plan's backups plus @p also_awaited (the
     * HADES Intend-to-commit fan-out shares the counter, so a slow ITC
     * Ack must not lose the race against an un-inflated deadline). A
     * fail-slow peer then reads as slow instead of dead; a fixed
     * deadline would false-timeout every commit touching it and the
     * retry loop would go metastable. Identity when the SLO tracker is
     * off or still warming up.
     */
    template <class OnAck, class OnDeadline>
    void
    stageReplicas(const ExecCtx &ctx, std::uint64_t id,
                  const ReplicaPlan &plan, OnAck on_ack,
                  OnDeadline on_deadline,
                  const std::set<NodeId> *also_awaited = nullptr)
    {
        if (plan.empty())
            return;
        const Tick persist = sys_.replicas->config().persistLatency();
        const Tick sent_at = sys_.kernel.now();
        const NodeId x = ctx.node;
        auto ack = [this, on_ack, sent_at, x](NodeId b) {
            if (sys_.slo)
                sys_.slo->observe(x, b, sys_.kernel.now() - sent_at);
            on_ack(b);
        };
        for (const auto &[b, updates] : plan) {
            if (sys_.replicas->injectLoss())
                continue; // the update never arrives: no Ack
            auto stage = [this, id, payload = updates, b] {
                auto &store = sys_.replicas->store(b);
                for (const auto &[rec, val] : payload)
                    store.stage(id, rec, val);
            };
            if (b == x) {
                sys_.kernel.schedule(persist, [stage, ack, b] {
                    stage();
                    ack(b);
                });
                continue;
            }
            sys_.network.post(
                net::MsgType::RdmaWrite, x, b,
                std::uint32_t(updates.size() *
                              (layout_.payloadBytes() + 16)),
                [this, stage, ack, persist, b, x] {
                    stage();
                    // Persist, then Ack over the wire.
                    sys_.kernel.schedule(persist, [this, ack, b, x] {
                        sys_.network.post(net::MsgType::Ack, b, x, 16,
                                          [ack, b] { ack(b); });
                    });
                });
        }
        std::uint32_t worst = 100;
        if (sys_.slo) {
            for (const auto &kv : plan)
                worst = std::max(worst, sys_.slo->inflationPct(x, kv.first));
            if (also_awaited)
                for (NodeId y : *also_awaited)
                    worst = std::max(worst, sys_.slo->inflationPct(x, y));
        }
        const Tick base = 4 * sys_.config.netRoundTrip + 2 * persist + us(2);
        sys_.kernel.schedule(base * Tick(worst) / 100,
                             std::move(on_deadline));
    }

    /**
     * Section V-A second phase for attempt @p id: promote the images
     * staged at the @p plan backups to durable storage under
     * @p commit_seq, or discard them when it is empty (abort). Remote
     * backups are told over @p verb, which the fault judge and the
     * message counters see. Both store operations are idempotent
     * (max-seq-wins absorbs reordered promotes), so replayed copies of
     * the reliable post are no-ops.
     */
    void
    settleReplicas(const ExecCtx &ctx, std::uint64_t id,
                   const ReplicaPlan &plan, net::MsgType verb,
                   std::optional<std::uint64_t> commit_seq)
    {
        if (plan.empty())
            return;
        if (commit_seq)
            sys_.replicas->noteCommit();
        else
            sys_.replicas->noteAbort();
        for (const auto &kv : plan) {
            const NodeId b = kv.first;
            auto settle = [this, b, id, commit_seq] {
                auto &store = sys_.replicas->store(b);
                if (commit_seq)
                    store.promote(id, *commit_seq);
                else
                    store.discard(id);
            };
            if (b == ctx.node)
                settle();
            else
                reliablePost(verb, ctx.node, b, 16, settle);
        }
    }

    /**
     * Fail-stop guard for retry loops: a context that slept through
     * its own node's failure (retry backoff, admission deferral) must
     * not open a fresh attempt. The view change resolves every
     * in-flight transaction of the dead coordinator through the
     * squash router, so an attempt begun *after* that resolution is
     * adopted by nothing and would dangle in the audit forever.
     */
    void
    throwIfNodeDead(const ExecCtx &ctx) const
    {
        if (faultsOn() && sys_.network.nodeDead(ctx.node))
            throw sim::NodeDead{};
    }

    /**
     * Admission-control retry gate, awaited after a squash before the
     * retry backoff. An exhausted per-node retry budget *paces* the
     * retry -- wait, re-ask, up to maxRetryDeferrals times -- then
     * proceeds regardless: budgets shape load under a retry storm,
     * they never strand a transaction.
     */
    sim::Task
    retryGate(const ExecCtx &ctx)
    {
        AdmissionController *adm = sys_.admission.get();
        if (!adm)
            co_return;
        std::uint32_t waits = 0;
        while (!adm->retryAllowed(ctx.node) &&
               waits < adm->config().maxRetryDeferrals) {
            st().retryBudgetDeferrals += 1;
            co_await sim::Delay{sys_.kernel, adm->retryPace(waits)};
            waits += 1;
        }
        adm->noteRetry(ctx.node);
    }

    /**
     * Protocol-level resend timeout for attempt @p attempt: capped
     * exponential in retryTimeoutBase..retryTimeoutCap plus up to 25%
     * jitter. Only called on faults-on paths, so the RNG draw does not
     * perturb fault-free runs.
     */
    Tick
    resendTimeout(std::uint32_t attempt)
    {
        Tick base = sys_.config.tuning.retryTimeoutBase
                    << std::min(attempt, 4u);
        base = std::min(base, sys_.config.tuning.retryTimeoutCap);
        return base + Tick(sys_.rng().below(std::uint64_t(base / 4) + 1));
    }

    /**
     * One-way message with protocol-level reliability. Fault-free this
     * is exactly Network::post. With faults enabled the destination
     * confirms every delivered copy with a small Ack, and the sender
     * re-posts on a capped-exponential timer until confirmed -- so
     * @p handler runs once per delivered copy and MUST be idempotent.
     */
    void
    reliablePost(net::MsgType type, NodeId src, NodeId dst,
                 std::uint32_t bytes, std::function<void()> handler)
    {
        if (!faultsOn()) {
            sys_.network.post(type, src, dst, bytes,
                              std::move(handler));
            return;
        }
        auto rs = std::make_shared<ReliableSend>();
        rs->type = type;
        rs->src = src;
        rs->dst = dst;
        rs->bytes = bytes;
        rs->handler = std::move(handler);
        reliableAttempt(std::move(rs), 0);
    }

    /**
     * Stats bucket of the node whose context is currently executing
     * (control bucket outside any node context). Engines charge every
     * counter through this accessor so counting is lane-local under
     * sharded execution and the merged totals are shard-invariant.
     */
    txn::EngineStats &
    st()
    {
        NodeId n = sys_.kernel.currentNode();
        return statsByNode_[n < sys_.config.numNodes ? n
                                                     : sys_.config.numNodes];
    }

    /**
     * The pessimistic lock-mode fallback serializes on a cluster-wide
     * token, which the threaded sharded executor cannot reproduce
     * bit-identically. Engines call this at the top of the fallback:
     * under threaded execution it asks the runner for a transparent
     * re-run on the (fully general) deterministic executor and unwinds
     * the attempt. Every other execution mode is a no-op.
     */
    void
    ensureSerialForLockMode()
    {
        if (sys_.kernel.threadedActive()) {
            sys_.kernel.requestSerialRerun();
            throw sim::SerialRerunNeeded{};
        }
    }

    /**
     * Squash transaction @p victim on behalf of node @p from (whose
     * lane the caller is executing on), staying lane-correct: a victim
     * coordinated on @p from is squashed directly (its control block
     * is lane-local), while a victim coordinated elsewhere is squashed
     * by a Squash round trip whose handler runs on the victim
     * coordinator's own lane -- the response carries the outcome back,
     * because the caller must distinguish Delivered from Uncommittable
     * (an uncommittable victim forces the *caller* to back off before
     * its own serialization point, or two conflicting transactions
     * would both commit). The round trip does real accounting, so every
     * cross-node squash shows up in the Squash message counters.
     */
    sim::Task
    squashVictim(NodeId from, std::uint64_t victim,
                 txn::SquashReason why, SquashOutcome &out)
    {
        const NodeId vnode = txnNode(victim);
        if (vnode >= sys_.config.numNodes || vnode == from) {
            out = sys_.routerFor(victim).squash(sys_.kernel, victim,
                                                why);
            co_return;
        }
        if (faultsOn()) {
            // Serial executors only (fault specs never certify for
            // threads): act on the victim's control block at the
            // instant the conflict is detected -- a dropped or delayed
            // Squash could otherwise cross with the victim's own
            // commit completion and let two mutually-conflicting
            // transactions both commit (the model note in hades.hh).
            // The wire message is still charged for accounting.
            out = sys_.routerFor(victim).squash(sys_.kernel, victim,
                                                why);
            // hades-analyze: verb-reliability-ok (accounting-only message: the squash already took effect instantaneously above, so a lost delivery changes nothing)
            sys_.network.post(net::MsgType::Squash, from, vnode, 16,
                              [] {});
            co_return;
        }
        SquashOutcome res = SquashOutcome::NotFound;
        co_await sys_.network.roundTrip(
            net::MsgType::Squash, from, vnode, 16, 16, [&]() -> Tick {
                res = sys_.routerFor(victim).squash(sys_.kernel, victim,
                                                    why);
                return sys_.cycles(20);
            });
        out = res;
    }

    /** Per-line streaming cost after the first line of a bulk access. */
    static constexpr std::int64_t kStreamCycles = 4;

    /** Bit position of the attempt epoch inside an attempt id. */
    static constexpr unsigned kEpochShift = 48;

    /** A fresh attempt id for @p ctx: its packed id tagged with the
     *  context's next attempt epoch, so a retry is distinguishable from
     *  its squashed predecessor. Epochs are stored per node so the
     *  bookkeeping stays lane-local. */
    std::uint64_t
    attemptId(const ExecCtx &ctx)
    {
        const std::uint64_t epoch =
            epochsByNode_[ctx.node][ctx.packed()]++ & 0x3fff;
        return ctx.packed() | (epoch << kEpochShift);
    }

    System &sys_;
    /** Layout of the run's data records. */
    const txn::RecordLayout layout_;
    /** Per-node stats buckets + control bucket (see st()). */
    std::vector<txn::EngineStats> statsByNode_;
    /** Per-node attempt-epoch counters (see attemptId()). */
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        epochsByNode_;

  private:
    /** Cluster-wide pessimistic-fallback token and its holder. */
    bool tokenBusy_ = false;
    NodeId tokenOwner_ = 0;

    /** In-flight reliablePost state, owned by the kernel closures. */
    // hades-analyze: lane-escape-ok (constructed only when faults are on -- fault-free reliablePost degenerates to a plain post -- and fault-injected traffic is hard-gated by Network::refuseIfThreaded)
    struct ReliableSend
    {
        net::MsgType type{};
        NodeId src = 0;
        NodeId dst = 0;
        std::uint32_t bytes = 0;
        std::function<void()> handler;
        bool confirmed = false;
    };

    void
    reliableAttempt(std::shared_ptr<ReliableSend> rs, std::uint32_t n)
    {
        if (rs->confirmed)
            return;
        // The chain ends only when confirmed or at fail-stop: a
        // permanently dead endpoint can never confirm, and recovery
        // owns whatever the post was trying to accomplish.
        if (sys_.network.nodeDead(rs->src) ||
            sys_.network.nodeDead(rs->dst))
            return;
        if (n > 0)
            st().reliableResends += 1;
        sys_.network.post(rs->type, rs->src, rs->dst, rs->bytes,
                          [this, rs] {
                              rs->handler();
                              // Confirm this delivered copy; the Ack is
                              // itself lossy, so the sender may resend
                              // (handler idempotency absorbs it).
                              sys_.network.post(
                                  net::MsgType::Ack, rs->dst, rs->src, 8,
                                  [rs] { rs->confirmed = true; });
                          });
        sys_.kernel.schedule(resendTimeout(n), [this, rs, n] {
            if (!rs->confirmed)
                reliableAttempt(rs, n + 1);
        });
    }
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_ENGINE_HH_
