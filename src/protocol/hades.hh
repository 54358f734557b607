/**
 * @file
 * The HADES protocol engine (Section V-A, Table II) and its hybrid
 * variant HADES-H (Section V-D): one engine, two local paths.
 *
 * Both configurations share the hardware remote path: Remote read/write
 * BFs in the NICs of remote nodes (Module 4a), the per-transaction
 * remote-write tables in the local NIC (Module 4b), and the
 * Intend-to-commit / Ack / Validation verbs. They differ only in how a
 * transaction accesses records homed at its own node -- the LocalPath:
 *
 *  - Hardware (HADES): a Local read BF and a split Local write BF
 *    (Module 3), the Recorded RD/WR filter bits (Module 1, modeled as
 *    exact sets) and WrTX ID tags in the LLC directory (Module 2).
 *    L-L conflicts are detected eagerly at access time (the second
 *    accessor squashes itself); evicting a speculatively-written LLC
 *    line squashes its owner.
 *  - Software (HADES-H): records carry Figure 1 metadata, local reads
 *    and writes are tracked at record granularity in Read and Write
 *    sets exactly like SW-Impl, and local conflicts are found by a
 *    software Local Validation (version re-reads) after all Acks
 *    arrive. Of the processor-side hardware only the partial
 *    directory-locking primitive survives: at commit the local record
 *    addresses are passed to the NIC, which builds the equivalent of
 *    LocalRead/WriteBF and installs them in a Locking Buffer.
 *
 * Conflict policy (Section IV-B): conflicts with at least one remote
 * access are detected lazily when the first transaction commits (the
 * committer squashes the other).
 *
 * Model notes (documented deviations):
 *  - Fault-free, squash notifications are real round trips delivered on
 *    the victim coordinator's lane (TxnEngine::squashVictim); the
 *    paper's narrow window where two mutually-conflicting commits could
 *    cross is closed by the outcome protocol -- a committer that finds
 *    its victim already uncommittable squashes itself instead, and
 *    abort cleanup is awaited before the next attempt epoch begins.
 *    With fault injection enabled (serial executors only) squashes act
 *    on the victim's control block at the instant a conflict is
 *    detected, as a dropped or delayed Squash could cross with the
 *    victim's own commit completion; the wire message is still charged
 *    for traffic accounting.
 *  - The Locking Buffer copy installed by a remote commit includes the
 *    Intend-to-commit address list in addition to RemoteWriteBF, so
 *    fully-written lines (which the paper deliberately keeps out of the
 *    write BF) are also protected during the commit window.
 *  - HADES-H stages replicas only when crash recovery is on;
 *    LocalPath::Profile records this and the paths' other data
 *    differences (DESIGN.md section 5).
 */

#ifndef HADES_PROTOCOL_HADES_HH_
#define HADES_PROTOCOL_HADES_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <variant>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "bloom/split_write_bloom.hh"
#include "protocol/engine.hh"

namespace hades::protocol
{

/** HADES (hardware local path) or HADES-H (software local path). */
class HadesEngine : public TxnEngine
{
  public:
    /** @p kind picks the local path: EngineKind::Hades the hardware
     *  one, EngineKind::HadesHybrid the software one. */
    HadesEngine(System &sys, std::uint32_t payload_bytes, EngineKind kind);
    ~HadesEngine() override;

    EngineKind kind() const override;

  private:
    class LocalPath;
    class HwPath;
    class SwPath;
    class DirectoryStall;

    /** One software Read Set entry (HADES-H local path). */
    struct LocalRead
    {
        std::uint64_t record;
        std::uint64_t version;
    };

    /** One software Write Set entry (HADES-H local path). */
    struct LocalWrite
    {
        std::uint64_t record;
        std::uint64_t version;
        std::int64_t value;
    };

    /** Live state of one attempt. */
    // hades-analyze: lane-escape-ok (coordinator-lane state: every mutable field is written either by the coordinator's own events or by ack/squash deliveries routed to the coordinator's lane through the window-barrier mailboxes; remote handlers read only immutable fields -- id, homeNode -- plus faultsOn()-gated flags that only matter on the serial executors)
    struct Attempt
    {
        using WriteFilter =
            std::variant<bloom::SplitWriteBloomFilter, bloom::BloomFilter>;

        Attempt(bloom::BloomFilter read_bf, WriteFilter write_bf)
            : localReadBf(std::move(read_bf)),
              localWriteBf(std::move(write_bf))
        {}

        /** The write BF as the Locking Buffer sees it. */
        const bloom::AddressFilter &
        writeFilter() const
        {
            return std::visit(
                [](const auto &f) -> const bloom::AddressFilter & {
                    return f;
                },
                localWriteBf);
        }

        AttemptControl ctrl;
        // --- local path ---------------------------------------------------
        /** Local read/write BFs: the core's Module 3 filters (hardware;
         *  the write BF is split) or the ones the NIC builds from the
         *  software sets at commit (software). */
        bloom::BloomFilter localReadBf;
        WriteFilter localWriteBf;
        /** Software Read and Write sets (empty on the hardware path). */
        std::vector<LocalRead> localReads;
        std::vector<LocalWrite> localWrites;
        // --- remote path --------------------------------------------------
        /** Module 1 Recorded RD/WR bits + locally-cached remote lines
         *  (the software path records remote lines only). */
        std::unordered_set<Addr> recordedRd, recordedWr;
        /** Buffered writes shipped by the shared commit: record ->
         *  (home, value). Holds every write on the hardware path and
         *  the remote writes on the software path. Ordered: commit
         *  iterates it and the order reaches message/write timing. */
        std::map<std::uint64_t, std::pair<NodeId, std::int64_t>>
            writeBuffer;
        /** Remote nodes this attempt touched (Module 4b lower struct). */
        std::set<NodeId> nodesInvolved;
        /** Replica updates staged at the backups (Section V-A). */
        ReplicaPlan replicas;
        std::uint32_t acksPending = 0;
        /** Nodes whose commit Ack arrived (dedupes replayed Acks and
         *  selects the targets of a timeout resend). */
        std::set<NodeId> ackedBy;
        /** Backups whose replica-staging Ack arrived. */
        std::set<NodeId> replicaAckedBy;
        /** Intend-to-commit address list per node, kept for resends. */
        std::map<NodeId, std::vector<Addr>> itcLines;
        /** Remote record values (and ground-truth versions) captured at
         *  the home node when the RDMA fetch returns. Reads are served
         *  from here, so the coordinator never touches another home's
         *  ground-truth bucket (the store is lane-partitioned by home). */
        std::map<std::uint64_t, std::pair<std::int64_t, std::uint64_t>>
            remoteReadCache;
        bool localDirLocked = false;
        bool finished = false;
        std::uint64_t id = 0; //!< packed gid | epoch (WrTX ID value)
        std::uint64_t auditId = 0; //!< auditor observation (0 = off)
        NodeId homeNode = 0;
    };

    using AttemptPtr = std::shared_ptr<Attempt>;

    sim::Task attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                      bool &committed) override;

    /** Livelock escape: retry under the fallback token (Section VI). */
    sim::Task attemptPessimistic(ExecCtx ctx,
                                 const txn::TxnProgram &prog) override;

    /** Timed remote read/write (RDMA + NIC BF insertion at the home).
     *  @p record identifies the fetched record so a read can cache its
     *  value/version for the lane-local read path. */
    sim::Task remoteAccess(ExecCtx ctx, AttemptPtr at, NodeId home,
                           std::uint64_t record, AddrRange range,
                           bool is_write);

    /** Buffer the value of a write to @p home, or serve a read: from
     *  the write buffer (read-your-own-write), the remote fetch cache,
     *  or -- for a record homed here -- ground truth. */
    void bufferValue(const ExecCtx &ctx, Attempt &at,
                     const txn::Request &req, NodeId home,
                     std::vector<std::int64_t> &read_vals);

    /** The commit sequence of Table II (both sides). */
    sim::Task commit(ExecCtx ctx, AttemptPtr at);

    /** Post the Validation (with its updates) to every involved node. */
    void postValidations(const ExecCtx &ctx, const AttemptPtr &at);

    /** Process an Intend-to-commit at remote node @p y (NIC offload).
     *  Runs as a coroutine on y's lane; every structure it touches --
     *  y's Locking Buffer, y's NIC filters with their exact shadow
     *  sets, y's local-transaction registry -- is owned by that lane.
     *  NoBuffer retries are bounded: a capped number of rounds breaks
     *  distributed waits-for cycles on exhausted banks (the committer
     *  is squashed, releasing its own buffers). */
    sim::Task handleIntendToCommit(NodeId y, AttemptPtr at,
                                   std::vector<Addr> write_lines);

    /** Fire-and-forget wrapper: runs handleIntendToCommit as a
     *  detached coroutine from the message-delivery event, absorbing
     *  the unwind exceptions (NodeDead, SerialRerunNeeded) that have
     *  no coordinator frame to land in here. */
    sim::DetachedTask spawnIntendToCommit(NodeId y, AttemptPtr at,
                                          std::vector<Addr> write_lines);

    /** Undo all speculative state of a squashed attempt. Fault-free
     *  the remote teardown is awaited (round trips), so the next
     *  attempt epoch starts only after every involved node has dropped
     *  this one's filters and locks. */
    sim::Task cleanupAborted(ExecCtx ctx, AttemptPtr at);

    /** Drop the attempt's filters and locks at every involved node. */
    sim::Task cleanupRemote(ExecCtx ctx, AttemptPtr at);

    /** Send one commit Ack from @p y back to the committer (idempotent
     *  at the receiver via Attempt::ackedBy). */
    void postCommitAck(AttemptPtr at, NodeId y);

    /**
     * Faults-on only: timer chain that re-posts Intend-to-commit to
     * nodes that have not Acked; after maxCommitResends rounds the
     * committer squashes itself (CommitTimeout) and retries.
     */
    void armCommitResend(ExecCtx ctx, AttemptPtr at,
                         std::uint32_t round);

    /** Throw sim::NodeDead if the attempt's node crashed permanently
     *  (fail-stop: the coroutine stack unwinds instead of executing
     *  on), else Squashed if a squash request is pending. */
    void
    checkSquash(const AttemptPtr &at) const
    {
        if (sys_.network.nodeDead(at->homeNode))
            throw sim::NodeDead{};
        if (at->ctrl.squashRequested)
            throw Squashed{at->ctrl.reason};
    }

    /** Probe one BF and account the check + false positives. */
    bool probeFilter(const bloom::AddressFilter &bf,
                     const bloom::LineHash &lh, bool truth);

    /** Registry of running attempts, per node (Module 3 bank). The
     *  hardware path's eager and lazy conflict scans iterate it, and
     *  it keeps the AttemptControl the SquashRouter points to alive
     *  after a NodeDead unwind (which skips the normal epilogue), so
     *  recovery's in-doubt scan reads valid control blocks. The
     *  software path needs only the latter, so without recovery it is
     *  empty and nothing registers. Ordered: scan order picks squash
     *  victims. */
    std::vector<std::map<std::uint64_t, AttemptPtr>> localTxns_;

    std::unique_ptr<LocalPath> local_;
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_HADES_HH_
