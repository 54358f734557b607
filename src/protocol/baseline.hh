/**
 * @file
 * The Baseline engine: an optimized software-only FaRM-style OCC
 * protocol (SW-Impl of Section III).
 *
 * It includes the four published optimizations the paper lists:
 *  (1) batched lock/unlock messages per remote node during validation,
 *  (2) writes and unlock messages sent without serialization,
 *  (3) no stalls waiting for unlock completion,
 *  (4) the read set is never locked during validation.
 *
 * The engine is instrumented to attribute time to the Table I overhead
 * categories so Figure 3 can be regenerated.
 */

#ifndef HADES_PROTOCOL_BASELINE_HH_
#define HADES_PROTOCOL_BASELINE_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "protocol/engine.hh"

namespace hades::protocol
{

/** FaRM-style software OCC engine. */
class BaselineEngine : public TxnEngine
{
  public:
    /**
     * @param sys           the cluster this engine drives
     * @param payload_bytes payload size of the records this run uses
     */
    BaselineEngine(System &sys, std::uint32_t payload_bytes)
        : TxnEngine(sys, payload_bytes)
    {}

    EngineKind kind() const override { return EngineKind::Baseline; }

  private:
    struct ReadEntry
    {
        std::uint64_t record;
        std::uint64_t version;
        NodeId home;
    };

    // hades-analyze: lane-escape-ok (entries live inside the owning attempt's coroutine-local write_set; never shared across lanes)
    struct WriteEntry
    {
        std::uint64_t record;
        NodeId home;
        std::int64_t value;
        std::uint32_t payloadBytes;
        bool locked = false;
    };

    sim::Task attempt(ExecCtx ctx, const txn::TxnProgram &prog,
                      bool &committed) override;

    /**
     * FaRM livelock fallback: lock every record up front (in record-id
     * order, waiting rather than aborting) and then execute. Always
     * commits.
     */
    sim::Task attemptPessimistic(ExecCtx ctx,
                                 const txn::TxnProgram &prog) override;

    /**
     * True when the router delivered a squash (a membership handoff's
     * StalePlacement) that the attempt must honour now: it checks
     * before each request and once more after validation. A dead
     * node's attempt is left to its next occupy(), which unwinds it
     * with NodeDead.
     */
    bool
    squashPending(const ExecCtx &ctx, const AttemptControl *ctrl) const
    {
        return ctrl && ctrl->squashRequested &&
               !sys_.network.nodeDead(ctx.node);
    }

    /** Release all locks this attempt still holds (abort path).
     *  @p self is the (possibly epoch-tagged) lock-owner id. */
    void releaseLocks(ExecCtx ctx, std::uint64_t self,
                      std::vector<WriteEntry> &writes);

    /**
     * Await one reply per node of a lock/validation fan-out. Fault-free
     * this reduces to a single wait for the last reply, reproducing the
     * CountdownLatch event sequence exactly. With faults on it re-posts
     * the batch to unresponsive nodes on a capped-exponential timer and
     * fails the batch (Fanout::anyFail) after
     * ClusterConfig::maxCommitResends rounds. Fanout::closed is set on
     * every exit so late deliveries of stale batches are discarded.
     */
    sim::Task awaitFanout(
        std::shared_ptr<Fanout> fo,
        std::map<NodeId, std::vector<std::size_t>> by_node,
        std::function<void(NodeId, const std::vector<std::size_t> &)>
            repost);

    /** Recovery only: control blocks of in-flight attempts, keyed by
     *  the epoch-tagged lock-owner id and registered with the
     *  SquashRouter. Keeps the control block the router points to
     *  alive after a NodeDead unwind destroys the coroutine frame (the
     *  unwind skips the normal retire), so recovery's in-doubt scan
     *  reads valid state. Ordered for deterministic enumeration. */
    // hades-analyze: lane-escape-ok (writes are recoveryOn()-gated; recovery specs never certify for threaded execution)
    std::map<std::uint64_t, std::shared_ptr<AttemptControl>> attempts_;
};

} // namespace hades::protocol

#endif // HADES_PROTOCOL_BASELINE_HH_
