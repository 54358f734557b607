#include "protocol/hades.hh"

#include <algorithm>
#include <tuple>

#include "common/log.hh"

namespace hades::protocol
{

using net::MsgType;
using txn::Overhead;
using txn::SquashReason;

namespace
{

/** Expand an address range into its cache-line addresses. */
std::vector<Addr>
linesOf(AddrRange range)
{
    std::vector<Addr> out;
    for (Addr l = range.firstLine(); l <= range.lastLine();
         l += kCacheLineBytes)
        out.push_back(l);
    return out;
}

} // namespace

/**
 * The local half of an attempt: everything HADES and HADES-H do
 * differently. The shared remote path calls it at the named points
 * below and nowhere else.
 */
class HadesEngine::LocalPath
{
  public:
    /** What differs between the paths as data rather than code. */
    struct Profile
    {
        EngineKind kind;
        /** Audit site labels (they appear only in violation text). */
        const char *probeSite;
        const char *nicReadSite;
        const char *nicWriteSite;
        /** Records carry Figure 1 metadata: remote payloads sit behind
         *  it, and a remote apply bumps the record's version. */
        bool recordMetadata;
        /** Stage replicas only when crash recovery is on. */
        bool replicateOnlyWithRecovery;
    };

    LocalPath(HadesEngine &e, const Profile &p)
        : profile(p), e_(e), sys_(e.sys_)
    {}
    virtual ~LocalPath() = default;
    LocalPath(const LocalPath &) = delete;
    LocalPath &operator=(const LocalPath &) = delete;

    const Profile profile;

    /** A fresh attempt carrying this path's local filters. */
    virtual AttemptPtr makeAttempt(const ExecCtx &ctx) = 0;

    /** Timed read of a client-cached index structure. */
    virtual sim::Task indexRead(ExecCtx ctx, NodeId home,
                                const txn::Request &req,
                                AddrRange range) = 0;

    /** Timed read or write of a record homed at this node, including
     *  its value handling. */
    virtual sim::Task access(ExecCtx ctx, AttemptPtr at,
                             const txn::Request &req, AddrRange range,
                             std::vector<std::int64_t> &read_vals) = 0;

    /** Commit step 1 prologue: fill the local read/write BFs handed to
     *  the Locking Buffer and collect the local write lines. */
    virtual sim::Task prepareLock(ExecCtx ctx, AttemptPtr at,
                                  std::vector<Addr> &write_lines) = 0;

    /** At remote node @p y, add the local transactions whose filters
     *  hit the hashed line to @p victims. */
    virtual void
    localVictims(NodeId, std::uint64_t, const bloom::LineHash &,
                 std::vector<std::uint64_t> &)
    {}

    /** After the last Ack, before the serialization point; throws
     *  Squashed on a local conflict. */
    virtual sim::Task validate(ExecCtx, AttemptPtr) { co_return; }

    /** Between the serialization point and the decision record. */
    virtual sim::Task serialize(ExecCtx) { co_return; }

    /** Apply the local writes. */
    virtual sim::Task apply(ExecCtx ctx, AttemptPtr at) = 0;

    /** Local abort teardown before the shared one. */
    virtual void abortLocal(NodeId, std::uint64_t) {}

    /** Per-attempt audit drain checks of path-private state (called
     *  only when auditing). */
    virtual void noteDrained(NodeId, std::uint64_t) {}

  protected:
    /** The engine whose state and timing helpers the path uses. */
    HadesEngine &e_;
    System &sys_;
};

/**
 * A directory access that its node's Locking Buffers deny (Fig. 7)
 * retries every llcCycles until they let it pass:
 *
 *     DirectoryStall stall(e, at, lh, is_write);
 *     while (stall.blocked())
 *         stall.polled(co_await stall.retry());
 *
 * Only a buffer release on the node, a squash of the attempt or the
 * node's death changes what a retry sees, and each wakes the node's
 * parked retries (the bank's release hook, SquashRouter::deliver,
 * Network::markNodeDead); the kernel replays the others
 * (sim::ParkedDelay). The stall lives in the caller's frame: a
 * coroutine of its own would allocate a frame per stall.
 */
class HadesEngine::DirectoryStall
{
  public:
    DirectoryStall(HadesEngine &e, const AttemptPtr &at,
                   const bloom::LineHash &lh, bool is_write)
        : e_(e), at_(at), lh_(lh), isWrite_(is_write)
    {}

    bool
    blocked() const
    {
        return e_.sys_.node(at_->homeNode)
            .lockBank.accessBlocked(lh_, isWrite_, at_->id);
    }

    /** The next retry. It runs for real when the wakes cannot reach it:
     *  the stall runs in another node's context (a test harness, or a
     *  serial-only fault path that resumed the attempt elsewhere), or
     *  a squash or death landed before the stall began. */
    sim::ParkedDelay
    retry() const
    {
        auto &sys = e_.sys_;
        const bool parks = sys.kernel.currentNode() == at_->homeNode &&
                           !at_->ctrl.squashRequested &&
                           !sys.network.nodeDead(at_->homeNode);
        return sim::ParkedDelay{sys.kernel,
                                e_.cycles(sys.config.llcCycles), at_->id,
                                parks ? kMaxPolls - polls_ : 1};
    }

    /** Count @p polls retries; throws if the attempt was squashed. */
    void
    polled(std::uint64_t polls)
    {
        polls_ += polls;
        e_.checkSquash(at_);
        always_assert(polls_ < kMaxPolls, "directory stall did not resolve");
    }

  private:
    /** Retries before the simulation declares the stall a hang. */
    static constexpr std::uint64_t kMaxPolls = 1000000;

    HadesEngine &e_;
    const AttemptPtr &at_;
    const bloom::LineHash &lh_;
    const bool isWrite_;
    std::uint64_t polls_ = 0;
};

// ---------------------------------------------------------------------------
// Hardware local path (HADES)
// ---------------------------------------------------------------------------

/** Core BFs, split WrBF, Recorded RD/WR bits, WrTX ID tags. */
class HadesEngine::HwPath final : public LocalPath
{
  public:
    explicit HwPath(HadesEngine &e)
        : LocalPath(e, {.kind = EngineKind::Hades,
                        .probeSite = "hades-conflict-probe",
                        .nicReadSite = "hades-nic-read-bf",
                        .nicWriteSite = "hades-nic-write-bf",
                        .recordMetadata = false,
                        .replicateOnlyWithRecovery = false})
    {
        // Evicting a speculatively-written LLC line squashes its owner.
        for (auto &node : sys_.nodes) {
            node->memory.llc().setSquashHook([this](std::uint64_t tx) {
                sys_.routerFor(tx).squash(sys_.kernel, tx,
                                          SquashReason::LlcEviction);
            });
        }
    }

    ~HwPath() override
    {
        for (auto &node : sys_.nodes)
            node->memory.llc().setSquashHook(nullptr);
    }

    AttemptPtr
    makeAttempt(const ExecCtx &ctx) override
    {
        const auto &cfg = sys_.config;
        return std::make_shared<Attempt>(
            bloom::BloomFilter(cfg.coreReadBf.bits,
                               cfg.coreReadBf.numHashes),
            bloom::SplitWriteBloomFilter(
                cfg.coreWriteBf,
                sys_.node(ctx.node).memory.llc().numSets()));
    }

    sim::Task
    indexRead(ExecCtx ctx, NodeId home, const txn::Request &,
              AddrRange range) override
    {
        co_await e_.indexRead(ctx, home, range);
    }

    sim::Task
    access(ExecCtx ctx, AttemptPtr at, const txn::Request &req,
           AddrRange range, std::vector<std::int64_t> &read_vals) override
    {
        co_await localAccess(ctx, at, range, req.isWrite);
        e_.checkSquash(at);
        e_.bufferValue(ctx, *at, req, ctx.node, read_vals);
    }

    sim::Task
    prepareLock(ExecCtx ctx, AttemptPtr at,
                std::vector<Addr> &write_lines) override
    {
        auto &core = e_.coreOf(ctx);
        co_await core.occupy(e_.findTagsLatency());
        write_lines = sys_.node(ctx.node).memory.llc().linesWrittenBy(
            at->id);
        // Find-LLC-Tags must enumerate exactly the lines this attempt
        // wrote, all covered by the split WrBF signature -- unless an
        // eviction squash already tore tags out from under us (the
        // squash throws at the next checkSquash).
        if (sys_.audit && !at->ctrl.squashRequested) {
            sys_.audit->noteFindTags(
                at->id, write_lines, at->ctrl.localWriteLines,
                &std::get<bloom::SplitWriteBloomFilter>(at->localWriteBf));
            sys_.audit->checkFilterCovers(at->localReadBf,
                                          at->ctrl.localReadLines,
                                          "hades-core-read-bf");
        }
        co_await core.occupy(e_.cycles(8)); // load BFs into the buffer
    }

    void
    localVictims(NodeId y, std::uint64_t committer,
                 const bloom::LineHash &lh,
                 std::vector<std::uint64_t> &victims) override
    {
        // Probe truth comes from the control blocks of y-homed
        // transactions, owned by y's lane.
        const Addr line = lh.line();
        for (auto &[oid, other] : e_.localTxns_[y]) {
            if (oid == committer)
                continue;
            bool truth_rd = other->ctrl.localReadLines.contains(line);
            bool truth_wr = other->ctrl.localWriteLines.contains(line);
            bool hit =
                e_.probeFilter(other->localReadBf, lh, truth_rd) ||
                e_.probeFilter(other->writeFilter(), lh, truth_wr);
            if (hit)
                victims.push_back(oid);
        }
    }

    sim::Task
    serialize(ExecCtx ctx) override
    {
        // Step 4: Find-LLC-Tags to clear the local speculative state.
        co_await e_.coreOf(ctx).occupy(e_.findTagsLatency());
    }

    sim::Task
    apply(ExecCtx ctx, AttemptPtr at) override
    {
        for (const auto &[record, hv] : at->writeBuffer) {
            if (hv.first == ctx.node) {
                std::uint64_t v = sys_.data.write(record, hv.second);
                if (sys_.audit)
                    sys_.audit->noteWrite(at->auditId, record, v);
            }
        }
        sys_.node(ctx.node).memory.llc().clearTxTags(at->id,
                                                     /*invalidate=*/false);
        co_return;
    }

    void
    abortLocal(NodeId node, std::uint64_t id) override
    {
        // Invalidate the speculatively-written lines.
        sys_.node(node).memory.llc().clearTxTags(id, /*invalidate=*/true);
    }

    void
    noteDrained(NodeId node, std::uint64_t id) override
    {
        sys_.audit->noteDrained(
            "llc-wrtx-tags", node,
            sys_.node(node).memory.llc().numLinesWrittenBy(id));
    }

  private:
    /** Timed local read/write with eager L-L conflict detection. */
    sim::Task localAccess(ExecCtx ctx, AttemptPtr at, AddrRange range,
                          bool is_write);
};

sim::Task
HadesEngine::HwPath::localAccess(ExecCtx ctx, AttemptPtr at,
                                 AddrRange range, bool is_write)
{
    auto &kernel = sys_.kernel;
    auto &core = e_.coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    auto &llc = node.memory.llc();
    auto &write_bf = std::get<bloom::SplitWriteBloomFilter>(at->localWriteBf);
    const auto lines = linesOf(range);

    // Multi-line reads use a transient Locking Buffer read guard for
    // atomicity instead of per-record version checks (Table I row 3).
    bool guard_held = false;
    if (!is_write && lines.size() > 1) {
        for (int tries = 0; tries < 64; ++tries) {
            if (node.lockBank.acquireReadGuard(at->id, lines)) {
                guard_held = true;
                if (sys_.audit)
                    sys_.audit->noteLockAcquire(at->id);
                break;
            }
            co_await sim::Delay{kernel, e_.cycles(100)};
            e_.checkSquash(at);
        }
        if (guard_held) {
            co_await core.occupy(e_.cycles(
                std::int64_t(sys_.config.crcHashCycles) *
                std::int64_t(lines.size())));
        }
    }

    for (Addr line : lines) {
        bool need_dir = is_write ? !at->recordedWr.contains(line)
                                 : !(at->recordedRd.contains(line) ||
                                     at->recordedWr.contains(line));
        // Latency of the data access itself.
        co_await core.occupy(
            node.memory.access(ctx.core, line).latency);

        if (!need_dir)
            continue;

        // First access by this transaction: it must reach the
        // directory/LLC for conflict detection (Module 1 semantics).
        // One LineHash serves the stall polls and every filter probe,
        // so the line is hashed at most once.
        const bloom::LineHash lh(line);
        DirectoryStall stall(e_, at, lh, is_write);
        while (stall.blocked())
            stall.polled(co_await stall.retry());

        // Charge the BF hashing up front: the tag check + filter probe
        // + tag set below are one atomic directory operation in the
        // hardware, so no simulated time may pass inside the block.
        co_await core.occupy(e_.cycles(sys_.config.crcHashCycles));
        e_.checkSquash(at);

        // WrTX ID tag check (Module 2): eager L-L detection.
        std::uint64_t tag = llc.wrTxIdOf(line);
        if (tag != 0 && tag != at->id) {
            if (guard_held)
                node.lockBank.release(at->id);
            throw Squashed{SquashReason::EagerLocalConflict};
        }

        if (is_write) {
            // Check every other local transaction's LocalReadBF.
            for (auto &[oid, other] : e_.localTxns_[ctx.node]) {
                if (oid == at->id)
                    continue;
                bool truth = other->ctrl.localReadLines.contains(line);
                if (e_.probeFilter(other->localReadBf, lh, truth)) {
                    if (guard_held)
                        node.lockBank.release(at->id);
                    throw Squashed{SquashReason::EagerLocalConflict};
                }
            }
            write_bf.insert(lh);
            at->ctrl.localWriteLines.insert(line);
            llc.setWrTxId(line, at->id);
            at->recordedWr.insert(line);
            // An eviction squash fired by setWrTxId targets us directly.
            e_.checkSquash(at);
        } else {
            at->localReadBf.insert(lh);
            at->ctrl.localReadLines.insert(line);
            at->recordedRd.insert(line);
        }
    }

    if (guard_held)
        node.lockBank.release(at->id);
}

// ---------------------------------------------------------------------------
// Software local path (HADES-H)
// ---------------------------------------------------------------------------

/** Record Read/Write sets, NIC-built local BFs, Local Validation. */
class HadesEngine::SwPath final : public LocalPath
{
  public:
    explicit SwPath(HadesEngine &e)
        : LocalPath(e, {.kind = EngineKind::HadesHybrid,
                        .probeSite = "hybrid-conflict-probe",
                        .nicReadSite = "hybrid-nic-read-bf",
                        .nicWriteSite = "hybrid-nic-write-bf",
                        .recordMetadata = true,
                        .replicateOnlyWithRecovery = true})
    {}

    AttemptPtr
    makeAttempt(const ExecCtx &) override
    {
        const auto &cfg = sys_.config;
        return std::make_shared<Attempt>(
            bloom::BloomFilter(cfg.nicReadBf.bits, cfg.nicReadBf.numHashes),
            bloom::BloomFilter(cfg.nicWriteBf.bits,
                               cfg.nicWriteBf.numHashes));
    }

    sim::Task
    indexRead(ExecCtx ctx, NodeId home, const txn::Request &req,
              AddrRange) override
    {
        const txn::RecordLayout lay = e_.layoutOf(req);
        co_await e_.indexRead(
            ctx, home,
            AddrRange{sys_.placement.addrOf(req.record), lay.swBytes()});
        if (home == ctx.node) {
            // The software local path still pays the node consistency
            // check.
            Tick t0 = sys_.kernel.now();
            co_await e_.coreOf(ctx).occupy(e_.cycles(
                std::int64_t(
                    sys_.config.costs.atomicityCheckPerLineCycles) *
                lay.payloadLines()));
            e_.st().addOverhead(Overhead::ReadAtomicity,
                                sys_.kernel.now() - t0);
        }
    }

    sim::Task access(ExecCtx ctx, AttemptPtr at, const txn::Request &req,
                     AddrRange, std::vector<std::int64_t> &read_vals)
        override;

    sim::Task prepareLock(ExecCtx ctx, AttemptPtr at,
                          std::vector<Addr> &write_lines) override;

    sim::Task validate(ExecCtx ctx, AttemptPtr at) override;

    sim::Task
    apply(ExecCtx ctx, AttemptPtr at) override
    {
        // Apply the local updates in one atomic instant, then charge
        // the time.
        const auto &layout = e_.layout_;
        auto &node = sys_.node(ctx.node);
        Tick apply_ticks = 0;
        Tick t_version = 0;
        for (const auto &w : at->localWrites) {
            std::uint64_t v = sys_.data.write(w.record, w.value);
            if (sys_.audit)
                sys_.audit->noteWrite(at->auditId, w.record, v);
            node.versions.bumpVersion(w.record);
            apply_ticks += e_.accessLines(ctx.node, ctx.core,
                                          sys_.placement.addrOf(w.record),
                                          layout.payloadLines());
            apply_ticks += e_.cycles(e_.copyCycles(layout.payloadBytes()));
            t_version += e_.cycles(sys_.config.costs.versionUpdateCycles);
        }
        e_.st().addOverhead(Overhead::UpdateVersion, t_version);
        co_await e_.coreOf(ctx).occupy(apply_ticks + t_version);
    }

  private:
    /** All sw-layout cache lines of a record (header + payload). */
    std::vector<Addr>
    recordLines(std::uint64_t record) const
    {
        Addr base = sys_.placement.addrOf(record);
        std::vector<Addr> out;
        for (std::uint32_t i = 0; i < e_.layout_.swLines(); ++i)
            out.push_back(lineAddr(base) + Addr{i} * kCacheLineBytes);
        return out;
    }
};

sim::Task
HadesEngine::SwPath::access(ExecCtx ctx, AttemptPtr at,
                            const txn::Request &req, AddrRange,
                            std::vector<std::int64_t> &read_vals)
{
    auto &kernel = sys_.kernel;
    auto &core = e_.coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    const auto &costs = sys_.config.costs;
    const Addr base = sys_.placement.addrOf(req.record);
    const txn::RecordLayout lay = e_.layoutOf(req);
    const std::uint32_t record_lines = lay.swLines();

    // Software accesses still traverse the directory when they miss in
    // the private caches, so a partially locked directory stalls them.
    // One LineHash serves every poll, so the line is hashed at most
    // once.
    const bloom::LineHash lh(lineAddr(base));
    DirectoryStall stall(e_, at, lh, req.isWrite);
    while (stall.blocked())
        stall.polled(co_await stall.retry());

    auto wit = std::find_if(
        at->localWrites.begin(), at->localWrites.end(),
        [&](const LocalWrite &w) { return w.record == req.record; });
    if (wit != at->localWrites.end()) {
        // Read-your-own-write or overwrite: walk the Write Set.
        co_await core.occupy(e_.cycles(costs.setWalkCycles));
        if (req.isWrite)
            wit->value = req.writtenValue(read_vals);
        else
            read_vals.push_back(wit->value);
        co_return;
    }

    if (req.isWrite) {
        const std::int64_t value = req.writtenValue(read_vals);
        // RD before WR at record granularity.
        Tick t0 = kernel.now();
        co_await core.occupy(
            e_.accessLines(ctx.node, ctx.core, base, record_lines));
        e_.st().addOverhead(Overhead::RdBeforeWr, kernel.now() - t0);

        const auto m = node.versions.peek(req.record);
        t0 = kernel.now();
        co_await core.occupy(
            e_.cycles(costs.setInsertCycles +
                      e_.copyCycles(lay.payloadBytes())));
        e_.st().addOverhead(Overhead::ManageSets, kernel.now() - t0);
        at->localWrites.push_back(
            LocalWrite{req.record, m.version, value});
        co_return;
    }

    co_await core.occupy(
        e_.accessLines(ctx.node, ctx.core, base, record_lines));
    const auto m = node.versions.peek(req.record);
    std::int64_t value = sys_.data.read(req.record);
    // Capture the ground-truth version at the same instant as the
    // value: simulated time passes below before the entry lands in
    // the read set.
    const std::uint64_t gt_version = sys_.data.version(req.record);

    // Read atomicity: per-line version compares + copy-out.
    Tick t0 = kernel.now();
    co_await core.occupy(e_.cycles(
        std::int64_t(costs.atomicityCheckPerLineCycles) *
            lay.payloadLines() +
        e_.copyCycles(lay.payloadBytes())));
    e_.st().addOverhead(Overhead::ReadAtomicity, kernel.now() - t0);

    if (!req.isIndex) {
        t0 = kernel.now();
        co_await core.occupy(e_.cycles(costs.setInsertCycles));
        e_.st().addOverhead(Overhead::ManageSets, kernel.now() - t0);
        at->localReads.push_back(LocalRead{req.record, m.version});
        read_vals.push_back(value);
        if (sys_.audit)
            sys_.audit->noteRead(at->auditId, req.record, gt_version);
    }
}

sim::Task
HadesEngine::SwPath::prepareLock(ExecCtx ctx, AttemptPtr at,
                                 std::vector<Addr> &write_lines)
{
    // Build the NIC-resident local BFs from the software sets.
    auto &write_bf = std::get<bloom::BloomFilter>(at->localWriteBf);
    std::uint32_t hashed = 0;
    for (const auto &r : at->localReads) {
        for (Addr line : recordLines(r.record)) {
            at->localReadBf.insert(line);
            at->ctrl.localReadLines.insert(line);
            ++hashed;
        }
    }
    for (const auto &w : at->localWrites) {
        for (Addr line : recordLines(w.record)) {
            write_bf.insert(line);
            at->ctrl.localWriteLines.insert(line);
            write_lines.push_back(line);
            ++hashed;
        }
    }
    // Software passes the addresses to the NIC; the NIC hashes them.
    co_await e_.coreOf(ctx).occupy(
        e_.cycles(sys_.config.costs.rdmaPostCycles +
                  std::int64_t(sys_.config.crcHashCycles) * hashed));
    e_.checkSquash(at);
    // The NIC-built filters must cover the exact local footprint.
    if (sys_.audit) {
        sys_.audit->checkFilterCovers(at->localReadBf,
                                      at->ctrl.localReadLines,
                                      "hybrid-nic-local-read-bf");
        sys_.audit->checkFilterCovers(write_bf, at->ctrl.localWriteLines,
                                      "hybrid-nic-local-write-bf");
    }
}

sim::Task
HadesEngine::SwPath::validate(ExecCtx ctx, AttemptPtr at)
{
    // Local Validation (software, Section V-D).
    auto &kernel = sys_.kernel;
    auto &core = e_.coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    const auto &costs = sys_.config.costs;
    Tick t0 = kernel.now();
    bool failed = false;
    for (const auto &r : at->localReads) {
        Addr base = sys_.placement.addrOf(r.record);
        if (node.lockBank.accessBlocked(lineAddr(base), false, at->id)) {
            failed = true; // another commit owns these lines
            break;
        }
        co_await core.occupy(e_.accessLines(ctx.node, ctx.core, base, 1) +
                             e_.cycles(costs.versionCompareCycles));
        if (node.versions.peek(r.record).version != r.version) {
            failed = true;
            break;
        }
    }
    if (!failed) {
        for (const auto &w : at->localWrites) {
            Addr base = sys_.placement.addrOf(w.record);
            co_await core.occupy(
                e_.accessLines(ctx.node, ctx.core, base, 1) +
                e_.cycles(costs.versionCompareCycles));
            if (node.versions.peek(w.record).version != w.version) {
                failed = true;
                break;
            }
        }
    }
    e_.st().addOverhead(Overhead::ConflictDetection, kernel.now() - t0);
    e_.checkSquash(at);
    if (failed)
        throw Squashed{SquashReason::ValidationFailure};
}

// ---------------------------------------------------------------------------
// Shared remote path
// ---------------------------------------------------------------------------

HadesEngine::HadesEngine(System &sys, std::uint32_t payload_bytes,
                         EngineKind kind)
    : TxnEngine(sys, payload_bytes),
      localTxns_(kind == EngineKind::Hades || recoveryOn()
                     ? sys.config.numNodes
                     : 0)
{
    if (kind == EngineKind::Hades)
        local_ = std::make_unique<HwPath>(*this);
    else
        local_ = std::make_unique<SwPath>(*this);
}

HadesEngine::~HadesEngine() = default;

EngineKind
HadesEngine::kind() const
{
    return local_->profile.kind;
}

bool
HadesEngine::probeFilter(const bloom::AddressFilter &bf,
                         const bloom::LineHash &lh, bool truth)
{
    st().bfConflictChecks += 1;
    bool hit = bf.mayContain(lh);
    if (hit && !truth)
        st().bfFalsePositives += 1;
    if (sys_.audit)
        sys_.audit->noteFilterProbe(hit, truth, local_->profile.probeSite);
    return hit;
}

void
HadesEngine::bufferValue(const ExecCtx &ctx, Attempt &at,
                         const txn::Request &req, NodeId home,
                         std::vector<std::int64_t> &read_vals)
{
    if (req.isWrite) {
        at.writeBuffer[req.record] = {home, req.writtenValue(read_vals)};
        return;
    }
    // Index reads return structure pointers, not values; keep
    // read_vals indices consistent across engines.
    if (req.isIndex)
        return;
    auto wit = at.writeBuffer.find(req.record);
    if (wit != at.writeBuffer.end()) {
        // Read-your-own-write: served from the write buffer, invisible
        // to the history audit.
        read_vals.push_back(wit->second.second);
        return;
    }
    std::int64_t value = 0;
    std::uint64_t version = 0;
    if (home != ctx.node) {
        // Remote record: the value (and its ground-truth version)
        // traveled back with the RDMA fetch; reading sys_.data here
        // would touch another home's bucket from this lane. A
        // conflicting commit between fetch and use squashes us via the
        // NIC read filter, so a committed attempt never observes a
        // stale cached value.
        auto cit = at.remoteReadCache.find(req.record);
        always_assert(cit != at.remoteReadCache.end(),
                      "remote read missed the fetch cache");
        std::tie(value, version) = cit->second;
    } else {
        value = sys_.data.read(req.record);
        version = sys_.data.version(req.record);
    }
    read_vals.push_back(value);
    if (sys_.audit)
        sys_.audit->noteRead(at.auditId, req.record, version);
}

sim::Task
HadesEngine::remoteAccess(ExecCtx ctx, AttemptPtr at, NodeId home,
                          std::uint64_t record, AddrRange range,
                          bool is_write)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    const auto lines = linesOf(range);

    // Already-fetched lines are served from the local copies.
    bool all_cached = true;
    for (Addr line : lines) {
        bool cached = is_write ? at->recordedWr.contains(line)
                               : (at->recordedRd.contains(line) ||
                                  at->recordedWr.contains(line));
        all_cached &= cached;
    }
    if (all_cached) {
        for (Addr line : lines) {
            co_await core.occupy(
                sys_.node(ctx.node).memory.access(ctx.core, line)
                    .latency);
        }
        co_return;
    }

    at->nodesInvolved.insert(home);
    auto &nic4b = sys_.node(ctx.node).nic.localState(at->id);
    nic4b.nodesInvolved.insert(home);

    // Partially-written lines must be fetched (and go into the remote
    // write BF); fully-written lines are neither fetched nor filtered --
    // their addresses travel with the Intend-to-commit at commit.
    std::vector<Addr> filter_lines; // lines to insert into the NIC BF
    std::vector<Addr> fetch_lines;  // lines brought to the local node
    if (is_write) {
        for (Addr line : lines) {
            bool full = line >= range.base &&
                        line + kCacheLineBytes <= range.end();
            if (!full) {
                filter_lines.push_back(line);
                fetch_lines.push_back(line);
            }
        }
        nic4b.writesByNode[home].push_back(range);
        nic4b.bufferedBytes += range.bytes;
    } else {
        filter_lines = lines;
        fetch_lines = lines;
    }

    // Fully-written lines need no exec-time message at all: the data is
    // buffered locally and their addresses travel with Intend-to-commit.
    if (!fetch_lines.empty()) {
        co_await core.occupy(cycles(sys_.config.costs.rdmaPostCycles));
        // The response of a read fetch carries the record's committed
        // value back; at_dst captures it (with its ground-truth
        // version) into the caller's frame, and the caller installs it
        // into the attempt's read cache below. Both the filter inserts
        // and the ground-truth lookup run at the home node -- under
        // worker threads that is the home's own lane, the only lane
        // allowed to touch the home's NIC filters and data bucket.
        std::int64_t fetched_val = 0;
        std::uint64_t fetched_ver = 0;
        for (;;) {
            bool blocked = false;
            // Filter inserts and the data read always act on the home
            // node's state (a hedge copy served by a backup replica is
            // a wire duplicate: the home's conflict tracking still sees
            // every access, and duplicate inserts are idempotent).
            auto at_dst = [&]() -> Tick {
                auto &ynode = sys_.node(home);
                for (Addr line : lines) {
                    if (ynode.lockBank.accessBlocked(line, is_write,
                                                     at->id)) {
                        blocked = true;
                        return sys_.cycles(20);
                    }
                }
                auto &filters = ynode.nic.remoteFilters(at->id);
                for (Addr line : filter_lines) {
                    if (is_write)
                        filters.insertWrite(line);
                    else
                        filters.insertRead(line);
                }
                if (!is_write) {
                    fetched_val = sys_.data.read(record);
                    fetched_ver = sys_.data.version(record);
                }
                Tick t = sys_.cycles(
                    std::int64_t(sys_.config.crcHashCycles) *
                    std::int64_t(filter_lines.size()));
                for (Addr line : fetch_lines)
                    t += ynode.memory.nicAccess(line).latency / 4;
                return t;
            };
            const std::uint32_t resp_bytes =
                std::uint32_t(fetch_lines.size()) * kCacheLineBytes;
            net::HedgeSpec hedge;
            if (!is_write && hedgeTarget(ctx, home, record, hedge)) {
                co_await sys_.network.hedgedRoundTrip(
                    MsgType::RdmaRead, ctx.node, home, hedge, 24,
                    resp_bytes, at_dst);
            } else {
                co_await sys_.network.roundTrip(
                    MsgType::RdmaRead, ctx.node, home, 24, resp_bytes,
                    at_dst);
            }
            if (!blocked)
                break;
            co_await sim::Delay{kernel, ns(300)};
            checkSquash(at);
        }
        if (!is_write)
            at->remoteReadCache[record] = {fetched_val, fetched_ver};
    }

    // The fetched lines now live in the local caches.
    for (Addr line : fetch_lines) {
        sys_.node(ctx.node).memory.access(ctx.core, line);
        if (is_write)
            at->recordedWr.insert(line);
        else
            at->recordedRd.insert(line);
    }
    if (is_write) {
        // Non-fetched (fully written) lines are buffered locally too.
        for (Addr line : lines)
            at->recordedWr.insert(line);
    }
}

sim::Task
HadesEngine::commit(ExecCtx ctx, AttemptPtr at)
{
    auto &core = coreOf(ctx);
    auto &node = sys_.node(ctx.node);
    const std::uint64_t id = at->id;

    // --- Step 1: partially lock the local directory --------------------------
    std::vector<Addr> local_write_lines;
    co_await local_->prepareLock(ctx, at, local_write_lines);
    for (;;) {
        auto acq = node.lockBank.tryAcquire(id, at->localReadBf,
                                            at->writeFilter(),
                                            local_write_lines);
        if (acq == bloom::AcquireResult::Acquired) {
            if (sys_.audit)
                sys_.audit->noteLockAcquire(id);
            break;
        }
        if (acq == bloom::AcquireResult::Conflict)
            throw Squashed{SquashReason::LockFailure};
        // Bank exhausted: wait for a committing transaction to drain.
        // Commits hold buffers for network round trips, so retrying
        // faster than a fraction of an RTT just burns simulation events.
        co_await sim::Delay{sys_.kernel, ns(200)};
        checkSquash(at);
    }
    at->localDirLocked = true;

    // --- Step 2: local data vs. remote transactions -------------------------
    // Snapshot the victims before squashing any: squashing a remote
    // victim awaits a network round trip, and the NIC's remote-filter
    // map mutates while this frame is suspended (new filters install,
    // cleanup messages erase entries), so iterating it across awaits
    // would be invalid. The filters' exact shadow sets double as the
    // probe ground truth -- both live at this node, on this lane.
    std::vector<std::uint64_t> victims;
    for (Addr line : local_write_lines) {
        const bloom::LineHash lh(line);
        for (const auto &[k, filters] : node.nic.remote()) {
            if (k == id)
                continue;
            bool hit = probeFilter(filters.readBf, lh,
                                   filters.readsContain(line)) ||
                       probeFilter(filters.writeBf, lh,
                                   filters.writesContain(line));
            if (hit)
                victims.push_back(k);
        }
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());
    for (std::uint64_t k : victims) {
        auto outcome = SquashOutcome::NotFound;
        co_await squashVictim(ctx.node, k, SquashReason::LazyConflict,
                              outcome);
        if (outcome == SquashOutcome::Uncommittable) {
            // The victim is past its serialization point; the only
            // safe resolution is to squash ourselves.
            sys_.routerFor(id).squash(sys_.kernel, id,
                                      SquashReason::LazyConflict);
        }
        checkSquash(at); // throws if we squashed ourselves above
    }
    co_await core.occupy(
        cycles(2 * std::int64_t(local_write_lines.size()) + 10));
    checkSquash(at);

    // --- Step 3: Intend-to-commit to all involved remote nodes --------------
    at->acksPending = std::uint32_t(at->nodesInvolved.size());
    auto &nic4b = node.nic.localState(id);
    for (NodeId y : at->nodesInvolved) {
        std::vector<Addr> itc_lines;
        auto wit = nic4b.writesByNode.find(y);
        if (wit != nic4b.writesByNode.end()) {
            for (const auto &range : wit->second)
                for (Addr l : linesOf(range))
                    itc_lines.push_back(l);
            std::sort(itc_lines.begin(), itc_lines.end());
            itc_lines.erase(
                std::unique(itc_lines.begin(), itc_lines.end()),
                itc_lines.end());
        }
        at->itcLines[y] = itc_lines; // kept for timeout resends
        // hades-analyze: verb-reliability-ok (initial send; armCommitResend re-posts from itcLines until Ack or CommitTimeout squash)
        sys_.network.post(
            MsgType::IntendToCommit, ctx.node, y,
            std::uint32_t(8 * itc_lines.size() + 16),
            [this, y, at, itc_lines] {
                spawnIntendToCommit(y, at, itc_lines);
            });
    }
    // Section V-A: the backups' staging Acks share the commit's ack
    // counter, and a missing one squashes the attempt at the deadline.
    if (sys_.replicas &&
        (!local_->profile.replicateOnlyWithRecovery || recoveryOn())) {
        for (const auto &w : at->localWrites)
            planReplicas(at->replicas, w.record, ctx.node, w.value);
        for (const auto &[rec, hv] : at->writeBuffer)
            planReplicas(at->replicas, rec, hv.first, hv.second);
        at->acksPending += std::uint32_t(at->replicas.size());
        stageReplicas(
            ctx, id, at->replicas,
            [this, at](NodeId b) {
                if (at->finished || at->ctrl.squashRequested ||
                    !at->replicaAckedBy.insert(b).second ||
                    at->acksPending == 0)
                    return; // late, or a replayed staging Ack
                if (--at->acksPending == 0)
                    at->ctrl.wake.notify(sys_.kernel);
            },
            [this, at] {
                if (!at->finished && !at->ctrl.uncommittable &&
                    at->acksPending > 0)
                    sys_.routerFor(at->id).squash(
                        sys_.kernel, at->id, SquashReason::ReplicaTimeout);
            },
            &at->nodesInvolved);
    }

    // Faults on: a lost Intend-to-commit or Ack would strand the wait
    // below, so arm the commit resend timer chain (CommitTimeout squash
    // after maxCommitResends fruitless rounds).
    if (faultsOn() && at->acksPending > 0)
        armCommitResend(ctx, at, 0);

    while (at->acksPending > 0 && !at->ctrl.squashRequested)
        co_await at->ctrl.wake.wait();
    checkSquash(at);
    co_await local_->validate(ctx, at);

    // All Acks received (and the local path validated): the
    // transaction can no longer be squashed.
    at->ctrl.uncommittable = true;
    co_await local_->serialize(ctx);

    // Serialization point. The decision record, the remote-write
    // journal and the local applies land in one instant (the software
    // path charges its apply time after applying), so recovery
    // observes either no decision (safe to abort -- the client was
    // never acked) or a decision whose writes are applied or journaled.
    std::uint64_t commit_seq = 0;
    if (sys_.replicas) {
        commit_seq = sys_.replicas->nextCommitSeq();
        at->ctrl.commitSeq = commit_seq;
        at->ctrl.decisionRecorded = true;
        if (recoveryOn())
            // hades-analyze: epoch-fence-ok (coordinator's own-attempt journal entry; stale deliveries are fenced by Network::advanceEpoch, and the in-doubt scan resolves entries by attempt id)
            sys_.decisionLog[id] = commit_seq;
        for (const auto &w : at->localWrites)
            sys_.replicas->noteCommittedWrite(w.record, commit_seq);
        for (const auto &[record, hv] : at->writeBuffer)
            sys_.replicas->noteCommittedWrite(record, commit_seq);
    }
    // Journal the decided remote writes: if a Validation never lands
    // (either endpoint crashes permanently), the view change replays
    // the entry so the committed write is not lost.
    if (recoveryOn()) {
        for (const auto &[record, hv] : at->writeBuffer)
            if (hv.first != ctx.node)
                // hades-analyze: epoch-fence-ok (coordinator's own-attempt journal entry; stale deliveries are fenced by Network::advanceEpoch and replay is idempotent per record)
                sys_.pendingApplies[{id, record}] =
                    PendingApply{hv.first, hv.second, at->auditId};
    }
    co_await local_->apply(ctx, at);
    postValidations(ctx, at);
    settleReplicas(ctx, id, at->replicas, MsgType::Validation, commit_seq);

    // --- Step 6: unlock the local directory and clear local state ------------
    co_await core.occupy(cycles(6));
    node.lockBank.release(id);
    at->localDirLocked = false;
}

void
HadesEngine::postValidations(const ExecCtx &ctx, const AttemptPtr &at)
{
    const std::uint64_t id = at->id;
    const std::uint64_t aid = at->auditId;
    const bool bump_versions = local_->profile.recordMetadata;
    for (NodeId y : at->nodesInvolved) {
        std::uint32_t bytes = 16;
        std::vector<std::pair<std::uint64_t, std::int64_t>> updates;
        for (const auto &[record, hv] : at->writeBuffer) {
            if (hv.first == y) {
                updates.emplace_back(record, hv.second);
                bytes += layout_.payloadLines() * kCacheLineBytes;
            }
        }
        reliablePost(
            MsgType::Validation, ctx.node, y, bytes,
            [this, y, id, aid, updates, bump_versions] {
                auto &ynode = sys_.node(y);
                // Replay guard: the first delivery clears the filters,
                // so a duplicated/re-sent Validation must not re-apply
                // writes (or bump versions, which is not idempotent)
                // over a lock some later transaction now holds.
                if (faultsOn() && !ynode.nic.hasRemoteFilters(id))
                    return;
                for (const auto &[record, value] : updates) {
                    std::uint64_t v = sys_.data.write(record, value);
                    if (sys_.audit)
                        sys_.audit->noteWrite(aid, record, v);
                    // Software Local Validations of transactions at y
                    // that read this record must fail.
                    if (bump_versions)
                        ynode.versions.bumpVersion(record);
                    nicAccessLines(y, sys_.placement.addrOf(record),
                                   layout_.payloadLines());
                    if (recoveryOn())
                        // hades-analyze: epoch-fence-ok (journal retirement keyed by attempt id; a view change that already replayed the entry makes this erase a no-op)
                        sys_.pendingApplies.erase({id, record});
                }
                ynode.lockBank.release(id);
                ynode.nic.clearRemoteFilters(id);
            });
    }
}

sim::DetachedTask
HadesEngine::spawnIntendToCommit(NodeId y, AttemptPtr at,
                                 std::vector<Addr> write_lines)
{
    try {
        co_await handleIntendToCommit(y, at, std::move(write_lines));
    } catch (const sim::NodeDead &) {
        // Fail-stop unwind of the remote handler; recovery tears the
        // dead node's state down, nothing to finish here.
    } catch (const sim::SerialRerunNeeded &) {
        // The rerun flag is already set; the run is being abandoned.
    }
}

sim::Task
HadesEngine::handleIntendToCommit(NodeId y, AttemptPtr at,
                                  std::vector<Addr> write_lines)
{
    auto &kernel = sys_.kernel;
    auto &ynode = sys_.node(y);
    const std::uint64_t id = at->id;

    // Serial executors only: with faults on, a duplicated or resent
    // delivery can arrive after the committer finished or was squashed
    // (its cleanup messages take care of the state here). Fault-free
    // there is exactly one delivery and it precedes any cleanup on
    // this (src,dst) channel, so the coordinator-side flags need not
    // -- and, under worker threads, must not -- be read on y's lane.
    if (faultsOn() && (at->finished || at->ctrl.squashRequested))
        co_return;

    // Idempotency guard (duplicated or timeout-resent delivery, both
    // faults-only): if this node's directory is already partially
    // locked for the committer -- or the committer is already past its
    // serialization point -- re-acquiring would corrupt the Locking
    // Buffer bank. Just confirm with another Ack; the committer
    // dedupes by node. The held() probe is y-local and so runs
    // unconditionally.
    if (ynode.lockBank.held(id) ||
        (faultsOn() && at->ctrl.uncommittable)) {
        co_await sim::Delay{kernel, sys_.cycles(20)};
        postCommitAck(at, y);
        co_return;
    }

    // Step 1 (remote): partially lock y's directory for the committer.
    for (int tries = 0;; ++tries) {
        // Re-fetched each round: the map cell can be erased (and the
        // reference invalidated) by a cleanup delivery while this
        // frame sleeps between retries.
        auto &filters = ynode.nic.remoteFilters(id);
        if (sys_.audit) {
            sys_.audit->checkFilterCovers(filters.readBf,
                                          filters.readLines,
                                          local_->profile.nicReadSite);
            sys_.audit->checkFilterCovers(filters.writeBf,
                                          filters.writeLines,
                                          local_->profile.nicWriteSite);
        }
        bloom::BloomFilter write_filter = filters.writeBf;
        for (Addr line : write_lines)
            write_filter.insert(line); // cover fully-written lines too
        auto acq = ynode.lockBank.tryAcquire(id, filters.readBf,
                                             write_filter, write_lines);
        if (acq == bloom::AcquireResult::Acquired)
            break;
        if (acq == bloom::AcquireResult::Conflict ||
            /* NoBuffer, out of retries: */ tries >= 64) {
            // Squash the committer. The retry bound matters:
            // committers hold their local buffers while waiting here,
            // so unbounded retries could form a distributed waits-for
            // cycle between exhausted banks.
            auto outcome = SquashOutcome::NotFound;
            co_await squashVictim(y, id, SquashReason::LockFailure,
                                  outcome);
            co_return;
        }
        co_await sim::Delay{kernel, ns(200)};
        // The committer may have been squashed while we slept; its
        // cleanup delivery then already dropped our filters and lock
        // here, and re-acquiring would leak a Locking Buffer entry
        // forever. The filters' presence is the y-local liveness
        // signal (the first delivery materialized them above).
        if (!ynode.nic.hasRemoteFilters(id))
            co_return;
        // A concurrently-delivered duplicate (faults-only) may have
        // acquired for the committer while we slept: fall back to the
        // idempotent re-ack instead of double-registering.
        if (ynode.lockBank.held(id)) {
            postCommitAck(at, y);
            co_return;
        }
    }
    if (sys_.audit)
        sys_.audit->noteLockAcquire(id);

    // Step 2 (remote): conflicts on y's data. Snapshot the victims
    // before squashing any (remote squashes await round trips; y's NIC
    // filter map and y's local-transaction registry both mutate while
    // this frame is suspended). Probe truth comes from y-owned state
    // only: the filters' exact shadow sets for remote transactions.
    // Local transactions at y are the local path's business: HADES-H
    // ones have no standing BFs and self-detect in their own Local
    // Validation ("y will return an Ack to i without checking for
    // conflicts with local transactions").
    std::vector<std::uint64_t> victims;
    for (Addr line : write_lines) {
        const bloom::LineHash lh(line);
        for (const auto &[k, kf] : ynode.nic.remote()) {
            if (k == id)
                continue;
            bool hit = probeFilter(kf.readBf, lh,
                                   kf.readsContain(line)) ||
                       probeFilter(kf.writeBf, lh,
                                   kf.writesContain(line));
            if (hit)
                victims.push_back(k);
        }
        local_->localVictims(y, id, lh, victims);
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());
    bool self_squashed = false;
    for (std::uint64_t k : victims) {
        auto outcome = SquashOutcome::NotFound;
        co_await squashVictim(y, k, SquashReason::LazyConflict,
                              outcome);
        if (outcome == SquashOutcome::Uncommittable) {
            // The victim is past its serialization point; the
            // conservative ordering rule squashes the committer
            // instead.
            self_squashed = true;
            break;
        }
    }
    if (self_squashed) {
        auto outcome = SquashOutcome::NotFound;
        co_await squashVictim(y, id, SquashReason::LazyConflict,
                              outcome);
        ynode.lockBank.release(id);
        co_return;
    }

    // Step 3 (remote): send the Ack after the NIC processing time.
    Tick work = sys_.cycles(20 + 2 * std::int64_t(write_lines.size()));
    co_await sim::Delay{kernel, work};
    postCommitAck(at, y);
}

void
HadesEngine::postCommitAck(AttemptPtr at, NodeId y)
{
    sys_.network.post(MsgType::Ack, y, at->homeNode, 16, [this, at, y] {
        if (at->finished || at->ctrl.squashRequested)
            return;
        if (!at->ackedBy.insert(y).second)
            return; // duplicated/re-sent Ack: already counted
        if (at->acksPending > 0) {
            at->acksPending -= 1;
            if (at->acksPending == 0)
                at->ctrl.wake.notify(sys_.kernel);
        }
    });
}

void
HadesEngine::armCommitResend(ExecCtx ctx, AttemptPtr at,
                             std::uint32_t round)
{
    sys_.kernel.schedule(resendTimeout(round), [this, ctx, at, round] {
        if (at->finished || at->ctrl.uncommittable ||
            at->ctrl.squashRequested || at->acksPending == 0)
            return;
        if (round >= sys_.config.tuning.maxCommitResends) {
            // Out of resend budget: a peer is unreachable (crashed or
            // partitioned). Squash-and-retry from a clean slate.
            sys_.routerFor(at->id).squash(sys_.kernel, at->id,
                                          SquashReason::CommitTimeout);
            return;
        }
        for (NodeId y : at->nodesInvolved) {
            if (at->ackedBy.contains(y))
                continue;
            st().timeoutResends += 1;
            const std::vector<Addr> itc_lines = at->itcLines[y];
            sys_.network.post(
                MsgType::IntendToCommit, ctx.node, y,
                std::uint32_t(8 * itc_lines.size() + 16),
                [this, y, at, itc_lines] {
                    spawnIntendToCommit(y, at, itc_lines);
                });
        }
        armCommitResend(ctx, at, round + 1);
    });
}

sim::Task
HadesEngine::cleanupAborted(ExecCtx ctx, AttemptPtr at)
{
    auto &node = sys_.node(ctx.node);
    const std::uint64_t id = at->id;

    // Drop all local state. The Locking Buffer release is
    // unconditional: it also reclaims a transient read guard if the
    // squash landed mid-read.
    local_->abortLocal(ctx.node, id);
    node.lockBank.release(id);
    at->localDirLocked = false;
    node.nic.clearLocalState(id);

    co_await cleanupRemote(ctx, at);
    settleReplicas(ctx, id, at->replicas, MsgType::Squash, std::nullopt);
}

sim::Task
HadesEngine::cleanupRemote(ExecCtx ctx, AttemptPtr at)
{
    const std::uint64_t id = at->id;
    // Tell every involved remote node to drop our filters/locks, each
    // handler running on its node's own lane. Fault-free the teardown
    // is awaited round trips: the next attempt epoch must not start
    // until every remote node has processed the cleanup, or a stale
    // Intend-to-commit retry could lock for this (dead) epoch after
    // its successor already began (the audit's lock-epoch monotonicity
    // invariant). With faults on, cleanup instead rides the reliable
    // channel fire-and-forget -- a lost message must not stall the
    // retry loop forever, and the serial-only coordinator-flag guards
    // in handleIntendToCommit cover the stale-retry window; both
    // handler operations are idempotent under replay.
    for (NodeId y : at->nodesInvolved) {
        if (!faultsOn()) {
            co_await sys_.network.roundTrip(
                MsgType::Squash, ctx.node, y, 16, 16, [&]() -> Tick {
                    sys_.node(y).lockBank.release(id);
                    sys_.node(y).nic.clearRemoteFilters(id);
                    return sys_.cycles(20);
                });
        } else {
            reliablePost(MsgType::Squash, ctx.node, y, 16,
                         [this, y, id] {
                             sys_.node(y).lockBank.release(id);
                             sys_.node(y).nic.clearRemoteFilters(id);
                         });
        }
    }
}

sim::Task
HadesEngine::attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                     bool &committed)
{
    auto &kernel = sys_.kernel;
    auto &core = coreOf(ctx);
    const std::uint64_t id = attemptId(ctx);

    auto at = local_->makeAttempt(ctx);
    at->id = id;
    at->homeNode = ctx.node;
    sys_.routerFor(id).add(id, &at->ctrl);
    if (!localTxns_.empty())
        localTxns_[ctx.node][id] = at;
    if (sys_.audit) {
        at->auditId = sys_.audit->begin(id);
        at->ctrl.auditId = at->auditId;
    }

    const Tick exec_start = kernel.now();
    Tick exec_end = exec_start;

    bool ok = false;
    bool aborted = false;
    try {
        std::vector<std::int64_t> read_vals;
        co_await core.occupy(cycles(prog.setupCycles));
        checkSquash(at);

        for (const auto &req : prog.requests) {
            co_await core.occupy(cycles(prog.computeCyclesPerRequest));
            checkSquash(at);

            const NodeId home = sys_.placement.homeOf(req.record);
            const txn::RecordLayout lay = layoutOf(req);
            const Addr base =
                sys_.placement.addrOf(req.record) +
                (local_->profile.recordMetadata ? lay.swPayloadOffset()
                                                : 0);
            const AddrRange range{base + req.offsetBytes,
                                  req.sizeBytes ? req.sizeBytes
                                                : lay.payloadBytes()};

            // Membership: publish the footprint so a migration batch
            // defers (and squash-retries) rather than moving a record
            // this attempt resolved a home for.
            if (membershipOn() && !req.isIndex)
                at->ctrl.recordsTouched.insert(req.record);

            if (req.isIndex && !req.isWrite) {
                // Client-cached read-only index structures need no
                // conflict tracking (see TxnEngine::indexRead).
                co_await local_->indexRead(ctx, home, req, range);
            } else if (home == ctx.node) {
                co_await local_->access(ctx, at, req, range, read_vals);
            } else {
                co_await remoteAccess(ctx, at, home, req.record, range,
                                      req.isWrite);
                checkSquash(at);
                bufferValue(ctx, *at, req, home, read_vals);
            }
            checkSquash(at);
        }
        exec_end = kernel.now();

        // recordedRd/Wr are the per-transaction line footprint (Section
        // VIII-C quotes <=76 / <=40).
        st().maxLinesRead = std::max(
            st().maxLinesRead, std::uint64_t(at->recordedRd.size()));
        st().maxLinesWritten = std::max(
            st().maxLinesWritten, std::uint64_t(at->recordedWr.size()));

        co_await commit(ctx, at);
        ok = true;
    } catch (const Squashed &sq) {
        // A recovery-resolved attempt was already cleaned up (and its
        // audit fate decided) by the view change; its unwind must not
        // double-count.
        if (!at->ctrl.resolvedByRecovery) {
            st().addSquash(at->ctrl.squashRequested ? at->ctrl.reason
                                                      : sq.reason);
            aborted = true; // awaited cleanup below (no co_await here)
            if (sys_.audit)
                sys_.audit->noteAbort(at->auditId);
        }
    }
    if (aborted)
        co_await cleanupAborted(ctx, at);

    at->finished = true;
    at->ctrl.finished = true;
    sys_.routerFor(id).remove(id);
    if (!localTxns_.empty())
        localTxns_[ctx.node].erase(id);

    if (ok) {
        sys_.node(ctx.node).nic.clearLocalState(id);
        st().execPhase.add(double(exec_end - exec_start));
        st().validationPhase.add(double(kernel.now() - exec_end));
        committed = true;
        if (sys_.audit)
            sys_.audit->noteCommit(at->auditId);
    }

    // Per-attempt drain check: every piece of this attempt's local
    // hardware state must be gone (remote state drains asynchronously
    // and is re-checked at end of run).
    if (sys_.audit) {
        auto &n = sys_.node(ctx.node);
        local_->noteDrained(ctx.node, id);
        sys_.audit->noteDrained("locking-buffer", ctx.node,
                                n.lockBank.held(id) ? 1 : 0);
        sys_.audit->noteDrained("nic-local-state", ctx.node,
                                n.nic.hasLocalState(id) ? 1 : 0);
    }
}

sim::Task
HadesEngine::attemptPessimistic(ExecCtx ctx, const txn::TxnProgram &prog)
{
    // Livelock escape (Section VI): after repeated squashes the
    // transaction acquires the cluster-wide token that serializes all
    // fallback transactions, then retries without the squash cap. The
    // paper instead pre-locks all data; the token models the same
    // "guaranteed progress" property with the hardware we already have.
    ensureSerialForLockMode();
    co_await acquireFallbackToken(ctx);
    for (;;) {
        throwIfNodeDead(ctx);
        st().attempts += 1;
        bool committed = false;
        co_await attempt(ctx, prog, committed);
        if (committed)
            break;
        co_await sim::Delay{sys_.kernel, backoff(4)};
    }
    releaseFallbackToken();
}

} // namespace hades::protocol
