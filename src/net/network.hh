/**
 * @file
 * Cluster interconnect model.
 *
 * Timing follows Table III: a 2 us NIC-to-NIC round trip, 200 Gb/s
 * links, and a fixed per-message NIC pipeline cost. Each node's NIC has
 * a transmit port modeled as a serially-reusable resource, so message
 * serialization contends under load while propagation overlaps.
 *
 * The model supports the verbs the protocols need:
 *  - roundTrip(): one-sided RDMA-style request/response. A handler runs
 *    at the destination on arrival (modeling NIC-offloaded work such as
 *    Bloom filter insertion or conflict checks) and returns the extra
 *    processing ticks it consumed.
 *  - post(): one-way message (Validation, Squash) with a handler at the
 *    destination.
 *
 * The 400 queue pairs of Table III are far more than the handful of
 * contexts per node ever have outstanding, so QP exhaustion is not
 * modeled.
 */

#ifndef HADES_NET_NETWORK_HH_
#define HADES_NET_NETWORK_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "sim/kernel.hh"
#include "sim/resource.hh"
#include "sim/task.hh"

namespace hades::net
{

/** Message categories, for statistics (Table I's operation counts). */
enum class MsgType : std::uint8_t
{
    RdmaRead,
    RdmaWrite,
    RdmaCas,
    IntendToCommit,
    Ack,
    Validation,
    Squash,
    Lease,      //!< configuration-manager lease renewal probe
    ViewChange, //!< epoch-numbered reconfiguration broadcast
    Migrate,    //!< membership record-migration / image-stream transfer
    NumTypes,
};

/** Human-readable verb name. */
const char *msgTypeName(MsgType t);

/** What the fault injector decided for one message transmission. */
struct FaultDecision
{
    bool drop = false;        //!< the copy is lost on the wire
    Tick delay = 0;           //!< extra reorder delay before arrival
    bool duplicate = false;   //!< deliver a second copy
    Tick duplicateDelay = 0;  //!< extra delay of the duplicate copy
    Tick stall = 0;           //!< source NIC pipeline stall after send
    /** The primary copy's payload is corrupted in flight: it arrives,
     *  fails the destination NIC's CRC check, and is discarded there
     *  (counted in Network::corruptDrops). A duplicate copy is an
     *  independent transmission and is delivered intact. */
    bool corrupt = false;
};

/**
 * Perturbs message deliveries. Consulted once per transmitted copy
 * (including NIC retransmissions); never consulted when unset, so the
 * fault-free fast path is unchanged.
 */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;
    virtual FaultDecision judge(MsgType t, NodeId src, NodeId dst) = 0;

    /**
     * Partition oracle: is the directed link src->dst inside a blocked
     * partition window at instant @p t? judge() already drops blocked
     * copies; this read-only view exists for control planes (the
     * recovery manager's CM quorum check) that must reason about
     * reachability without sending anything.
     */
    virtual bool
    linkBlocked(NodeId src, NodeId dst, Tick t) const
    {
        (void)src;
        (void)dst;
        (void)t;
        return false;
    }
};

class SloTracker;

/**
 * Hedge plan for one round trip: after @p delay without a response,
 * send one additional request copy to @p backup (a live backup replica
 * of the record), whose NIC serves the same handler and responds.
 * First response wins; the loser is absorbed by the round trip's
 * idempotent-replay guard exactly like a duplicate delivery.
 */
// hades-analyze: lane-escape-ok (stack-local out-parameter filled by the coordinator and consumed immediately by faultyRoundTrip; SLO-enabled specs never certify for threaded execution)
struct HedgeSpec
{
    NodeId backup = 0;
    Tick delay = 0;
};

/** The cluster interconnect. */
class Network
{
  public:
    /** Work executed at the destination NIC; returns processing Ticks. */
    using RemoteWork = std::function<Tick()>;

    Network(sim::Kernel &kernel, const ClusterConfig &cfg);

    /**
     * RDMA-style round trip from @p src to @p dst.
     *
     * @param type       verb, for accounting
     * @param req_bytes  request payload (headers added internally)
     * @param resp_bytes response payload
     * @param at_dst     optional work at the destination on arrival
     *
     * Completes (as a coroutine) when the response arrives back at src.
     */
    sim::Task roundTrip(MsgType type, NodeId src, NodeId dst,
                        std::uint32_t req_bytes, std::uint32_t resp_bytes,
                        RemoteWork at_dst = nullptr);

    /**
     * roundTrip() with a latency hedge (grey-failure mitigation; only
     * meaningful while a fault injector is attached -- hedging rides
     * the RC retransmission machinery). If the home @p dst has not
     * responded @p hedge.delay after the first send, one extra copy
     * goes to @p hedge.backup; whichever response lands first
     * completes the call and the other is suppressed by the active
     * guard. The handler runs for every delivered copy (idempotent by
     * the protocol's own duplicate-delivery contract), so conflict
     * tracking at the home is never bypassed.
     */
    sim::Task hedgedRoundTrip(MsgType type, NodeId src, NodeId dst,
                              const HedgeSpec &hedge,
                              std::uint32_t req_bytes,
                              std::uint32_t resp_bytes,
                              RemoteWork at_dst = nullptr);

    /**
     * One-way message; @p at_dst runs on arrival. Returns immediately
     * (the sender does not wait).
     */
    void post(MsgType type, NodeId src, NodeId dst,
              std::uint32_t bytes, std::function<void()> at_dst);

    /** One-way wire latency for a payload of @p bytes (no port queue). */
    Tick oneWay(std::uint32_t bytes) const;

    // --- fault injection ----------------------------------------------------
    /**
     * Attach (or detach, with nullptr) a fault injector. While attached,
     * roundTrip() runs an RC-style NIC retransmission loop (lost
     * request/response copies are resent after a capped exponential
     * timeout) and post() copies may be dropped, delayed, or duplicated
     * -- one-way verbs carry no NIC-level reliability; recovery is the
     * protocol engines' job.
     */
    void setFaultInjector(FaultInjector *f) { fault_ = f; }
    FaultInjector *faultInjector() const { return fault_; }

    /** Attach the latency-SLO tracker: every completed fault-path
     *  round trip then reports its observed RTT, attributed to the
     *  node that served the winning response. */
    void setSloTracker(SloTracker *t) { slo_ = t; }

    /** Hedge copies actually sent / round trips the hedge won. */
    std::uint64_t hedgedSends() const { return hedgedSends_; }
    std::uint64_t hedgeWins() const { return hedgeWins_; }
    /** Count a hedge copy issued outside hedgedRoundTrip (protocol
     *  layers that hedge one-way batches charge it here). */
    // hades-analyze: lane-escape-ok (hedging requires the SLO tracker, and SLO-enabled specs never certify for threaded execution -- see Runner::certifiedForThreads)
    void noteHedgedSend() { hedgedSends_ += 1; }

    /** Stall @p node's TX port for @p duration (node pause/crash). */
    void stallNode(NodeId node, Tick duration);

    // --- permanent crashes and epoch fencing --------------------------------
    /**
     * Mark @p node permanently crashed (crash_forever window opened).
     * Its TX port freezes, round trips from it unwind their caller with
     * sim::NodeDead, and round trips *to* it are abandoned -- the NIC
     * gives up retransmitting to a peer that will never respond. The
     * fault injector independently drops every in-flight copy whose
     * window covers the endpoint, so the two mechanisms agree.
     */
    void markNodeDead(NodeId node);
    bool nodeDead(NodeId node) const { return dead_[node] != 0; }

    /**
     * Current configuration epoch. Every transmitted copy is stamped
     * with the epoch at its send instant while faults are attached;
     * advanceEpoch() (called by the recovery manager at a view change)
     * fences all still-in-flight older-epoch copies: they are dropped
     * at delivery and counted, so delayed pre-crash messages cannot
     * corrupt the new view. Lease/ViewChange/Migrate control traffic
     * is exempt.
     */
    void advanceEpoch() { epoch_ += 1; }
    std::uint64_t fencedStaleMessages() const { return fencedStale_; }

    /** Copies delivered with a corrupted payload and discarded by the
     *  destination NIC's CRC check (see FaultDecision::corrupt). */
    std::uint64_t corruptDrops() const { return corruptDrops_; }

    // --- statistics ---------------------------------------------------------
    /** Counters are kept per node (each node's lane increments only its
     *  own slot, so threaded messaging runs never share a statistics
     *  cache line); the getters sum over the fixed node order. */
    std::uint64_t messageCount(MsgType t) const;
    std::uint64_t totalMessages() const;
    std::uint64_t totalBytes() const;

    /** One node's share of the transmission statistics (the request
     *  legs it sent plus the response legs it served). Only that
     *  node's lane ever writes the slot, so per-node telemetry is a
     *  lane-isolation witness for the tests. */
    std::uint64_t nodeMessages(NodeId n) const;
    std::uint64_t nodeBytes(NodeId n) const;

    /** NIC-level retransmitted round-trip request copies, per verb. */
    std::uint64_t retransmits(MsgType t) const;
    std::uint64_t totalRetransmits() const;

    const ClusterConfig &config() const { return cfg_; }
    sim::Kernel &kernel() { return kernel_; }

  private:
    Tick serialize(std::uint32_t bytes) const;
    /** Count one transmission against @p node's statistics slot. Must
     *  be called on @p node's lane (the sender counts the request leg,
     *  the responder counts the response leg). */
    void account(NodeId node, MsgType t, std::uint32_t bytes);

    /** True (and counted) if a copy stamped @p sent_epoch must be
     *  fenced at delivery time. */
    bool fenceStale(MsgType t, std::uint64_t sent_epoch);

    /** True (and counted) if a delivered copy fails the destination
     *  NIC's CRC check and must be discarded. */
    bool
    crcReject(bool corrupt)
    {
        if (corrupt)
            corruptDrops_ += 1;
        return corrupt;
    }

    /** roundTrip() body used while a fault injector is attached.
     *  @p hedge, when non-null, arms the one-shot backup copy of
     *  hedgedRoundTrip(). */
    sim::Task faultyRoundTrip(MsgType type, NodeId src, NodeId dst,
                              std::uint32_t req_bytes,
                              std::uint32_t resp_bytes,
                              RemoteWork at_dst,
                              const HedgeSpec *hedge = nullptr);

    /**
     * The hard gate behind the runner's threaded-executor
     * certification. Fault-free messaging is lane-safe (every verb
     * delivers through the kernel's window-barrier mailboxes and runs
     * its handler on the destination's own lane), so plain round trips
     * and posts no longer refuse. The genuinely serial paths still do:
     * fault-injected traffic (the RC retransmission loop shares timer /
     * delivery state across copies racing on both endpoints' lanes) and
     * the recovery control plane (Lease / ViewChange, whose view-change
     * handler walks every node's state). Hitting this aborts the
     * attempt and re-runs the spec on the deterministic sharded
     * executor (which handles every model path bit-identically) --
     * only reachable when the static certification in runner.cc admits
     * a spec that turns out to use a serial path; the run is redone,
     * never silently wrong.
     */
    void
    refuseIfThreaded()
    {
        if (kernel_.threadedActive()) [[unlikely]] {
            kernel_.requestSerialRerun();
            throw sim::SerialRerunNeeded{};
        }
    }

    /** Every send must originate on the sender's own lane (the source
     *  TX port and the source statistics slot are lane-owned state).
     *  Checked only while worker threads are live; the serial modes
     *  are correct for any caller context. */
    void
    assertLaneLocalSend(NodeId src) const
    {
        if (kernel_.threadedActive()) [[unlikely]] {
            always_assert(
                sim::Kernel::laneOf(kernel_.currentNode(),
                                    kernel_.shards()) ==
                    sim::Kernel::laneOf(src, kernel_.shards()),
                "network send from a foreign lane");
        }
    }

    sim::Kernel &kernel_;
    const ClusterConfig &cfg_;
    FaultInjector *fault_ = nullptr;
    SloTracker *slo_ = nullptr;
    std::vector<std::unique_ptr<sim::ComputeResource>> txPort_;
    /** One node's share of the message statistics; see account(). */
    struct NodeStats
    {
        std::array<std::uint64_t,
                   static_cast<std::size_t>(MsgType::NumTypes)>
            msgCount{};
        std::array<std::uint64_t,
                   static_cast<std::size_t>(MsgType::NumTypes)>
            retransmits{};
        std::uint64_t bytes = 0;
    };
    std::vector<NodeStats> statsByNode_;
    std::vector<char> dead_;
    std::uint64_t epoch_ = 0;
    std::uint64_t fencedStale_ = 0;
    std::uint64_t corruptDrops_ = 0;
    std::uint64_t hedgedSends_ = 0;
    std::uint64_t hedgeWins_ = 0;
};

} // namespace hades::net

#endif // HADES_NET_NETWORK_HH_
