#include "net/network.hh"

#include <algorithm>

#include "common/log.hh"
#include "net/slo_tracker.hh"

namespace hades::net
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::RdmaRead:
        return "RdmaRead";
      case MsgType::RdmaWrite:
        return "RdmaWrite";
      case MsgType::RdmaCas:
        return "RdmaCas";
      case MsgType::IntendToCommit:
        return "IntendToCommit";
      case MsgType::Ack:
        return "Ack";
      case MsgType::Validation:
        return "Validation";
      case MsgType::Squash:
        return "Squash";
      case MsgType::Lease:
        return "Lease";
      case MsgType::ViewChange:
        return "ViewChange";
      case MsgType::Migrate:
        return "Migrate";
      default:
        return "?";
    }
}

Network::Network(sim::Kernel &kernel, const ClusterConfig &cfg)
    : kernel_(kernel), cfg_(cfg), statsByNode_(cfg.numNodes),
      dead_(cfg.numNodes, 0)
{
    for (std::uint32_t n = 0; n < cfg.numNodes; ++n)
        txPort_.push_back(std::make_unique<sim::ComputeResource>(kernel));
}

void
Network::markNodeDead(NodeId node)
{
    dead_[node] = 1;
    txPort_[node]->freeze();
    // The node's stalled accesses unwind at their next poll.
    kernel_.wakeParked(node);
}

bool
Network::fenceStale(MsgType t, std::uint64_t sent_epoch)
{
    if (sent_epoch >= epoch_)
        return false;
    if (t == MsgType::Lease || t == MsgType::ViewChange ||
        t == MsgType::Migrate)
        return false;
    fencedStale_ += 1;
    return true;
}

Tick
Network::serialize(std::uint32_t bytes) const
{
    // bits / (Gb/s) = ns; keep picosecond precision.
    double ns_exact = double(bytes) * 8.0 / cfg_.netBandwidthGbps;
    return static_cast<Tick>(ns_exact * double(kNanosecond));
}

Tick
Network::oneWay(std::uint32_t bytes) const
{
    std::uint32_t total = bytes + cfg_.messageHeaderBytes;
    return cfg_.netRoundTrip / 2 + serialize(total) + cfg_.nicProcessing;
}

void
Network::account(NodeId node, MsgType t, std::uint32_t bytes)
{
    NodeStats &st = statsByNode_[node];
    st.msgCount[static_cast<std::size_t>(t)] += 1;
    st.bytes += bytes + cfg_.messageHeaderBytes;
}

sim::Task
Network::roundTrip(MsgType type, NodeId src, NodeId dst,
                   std::uint32_t req_bytes, std::uint32_t resp_bytes,
                   RemoteWork at_dst)
{
    always_assert(src != dst, "round trip to self");
    if (type == MsgType::Lease || type == MsgType::ViewChange ||
        type == MsgType::Migrate)
        refuseIfThreaded(); // recovery/membership control plane stays serial
    assertLaneLocalSend(src);
    if (fault_) {
        co_await faultyRoundTrip(type, src, dst, req_bytes, resp_bytes,
                                 std::move(at_dst));
        co_return;
    }
    account(src, type, req_bytes);

    // Outbound serialization occupies the source TX port.
    co_await txPort_[src]->occupy(serialize(req_bytes +
                                            cfg_.messageHeaderBytes));

    // Propagation + destination NIC pipeline, delivered on the
    // *destination's* lane: the NIC-offloaded handler and the response
    // port occupancy touch dst-owned state, so they must execute in
    // dst's node context. The one-way latency is at least the
    // conservative lookahead, so under worker threads this send always
    // lands at or beyond the next window barrier.
    const Tick half = cfg_.netRoundTrip / 2 + cfg_.nicProcessing;
    sim::Completion done;
    kernel_.scheduleAs(dst, half, [this, &done, &at_dst, type, src, dst,
                                   resp_bytes, half] {
        // NIC-offloaded work at the destination.
        Tick work = at_dst ? at_dst() : 0;
        kernel_.schedule(work, [this, &done, type, src, dst, resp_bytes,
                                half] {
            // Response path (counted and serialized at dst, received
            // back on the requester's lane).
            account(dst, type, resp_bytes);
            Tick depart = txPort_[dst]->reserve(
                serialize(resp_bytes + cfg_.messageHeaderBytes));
            kernel_.scheduleAtAs(depart + half, src,
                                 [this, &done] { done.fire(kernel_); });
        });
    });
    co_await done.wait();
}

sim::Task
Network::hedgedRoundTrip(MsgType type, NodeId src, NodeId dst,
                         const HedgeSpec &hedge, std::uint32_t req_bytes,
                         std::uint32_t resp_bytes, RemoteWork at_dst)
{
    always_assert(src != dst, "round trip to self");
    always_assert(hedge.backup != dst && hedge.backup != src,
                  "hedge backup must be a third node");
    assertLaneLocalSend(src);
    if (!fault_) {
        // Hedging only exists to escape injected grey failures; the
        // pristine fabric needs no second copy.
        co_await roundTrip(type, src, dst, req_bytes, resp_bytes,
                           std::move(at_dst));
        co_return;
    }
    co_await faultyRoundTrip(type, src, dst, req_bytes, resp_bytes,
                             std::move(at_dst), &hedge);
}

sim::Task
Network::faultyRoundTrip(MsgType type, NodeId src, NodeId dst,
                         std::uint32_t req_bytes,
                         std::uint32_t resp_bytes, RemoteWork at_dst,
                         const HedgeSpec *hedge)
{
    // The retransmission machinery below shares one RtState between
    // delivery events racing on both endpoints' lanes, so fault-
    // injected traffic is a genuinely serial path.
    refuseIfThreaded();
    // RDMA RC semantics under loss: the requester NIC retransmits after
    // a capped exponential timeout until the response arrives. Delivered
    // request copies (duplicates included) each run the destination
    // handler, so handlers must be idempotent -- exactly the semantics
    // the protocol relies on.
    struct RtState
    {
        bool active = true;       //!< round trip not yet completed
        bool respArrived = false;
        std::uint32_t gen = 0;    //!< current retransmission attempt
        NodeId servedBy = 0;      //!< node whose response won
        sim::AutoResetEvent wake;
        RemoteWork work;
    };
    auto st = std::make_shared<RtState>();
    st->work = std::move(at_dst);
    st->servedBy = dst;
    const Tick start = kernel_.now();

    // The handler typically holds references into the caller's
    // coroutine frame, so it must never run after this round trip ends
    // -- on *any* exit: completion, the NodeDead throw of a crashed
    // requester (the unwind destroys the caller frame while request
    // copies are still in flight), or destruction of this suspended
    // frame. An RAII guard covers all three; in-flight deliveries then
    // see active == false and do nothing.
    struct Deactivate
    {
        std::shared_ptr<RtState> st;
        ~Deactivate()
        {
            st->active = false;
            st->work = nullptr;
        }
    } guard{st};

    const Tick half = cfg_.netRoundTrip / 2 + cfg_.nicProcessing;

    // Delivery of one request copy (stamped with the epoch of its send
    // instant): CRC-check the payload, run the handler, then send the
    // response (which is itself subject to faults and carries its own
    // epoch stamp). A corrupted copy dies at the destination NIC and
    // the requester's retransmission timer recovers it, exactly like a
    // wire drop. @p server is the node the copy was addressed to --
    // the home for primary/retransmitted copies, the backup for a
    // hedge copy -- and the response leg is judged on its own link, so
    // a hedge genuinely escapes the slow endpoint.
    auto deliver = [this, st, type, src, resp_bytes,
                    half](NodeId server, std::uint64_t sent_epoch,
                          bool corrupt) {
        if (!st->active || fenceStale(type, sent_epoch) ||
            crcReject(corrupt))
            return;
        Tick work = st->work ? st->work() : 0;
        kernel_.schedule(work, [this, st, type, src, server, resp_bytes,
                                half] {
            if (!st->active)
                return;
            account(server, type, resp_bytes);
            Tick depart = txPort_[server]->reserve(
                serialize(resp_bytes + cfg_.messageHeaderBytes));
            FaultDecision fd = fault_->judge(type, server, src);
            if (fd.stall > 0)
                txPort_[server]->reserve(fd.stall);
            const std::uint64_t resp_epoch = epoch_;
            auto arrive = [this, st, type, server,
                           resp_epoch](bool resp_corrupt) {
                if (!st->active || fenceStale(type, resp_epoch) ||
                    crcReject(resp_corrupt))
                    return;
                if (!st->respArrived)
                    st->servedBy = server;
                st->respArrived = true;
                st->wake.notify(kernel_);
            };
            if (!fd.drop)
                kernel_.scheduleAtAs(depart + half + fd.delay, src,
                                     [arrive, corrupt = fd.corrupt] {
                                         arrive(corrupt);
                                     });
            if (fd.duplicate)
                kernel_.scheduleAtAs(depart + half + fd.duplicateDelay,
                                     src, [arrive] { arrive(false); });
        });
    };

    Tick rto = cfg_.tuning.retryTimeoutBase;
    for (std::uint32_t attempt = 0;; ++attempt) {
        // Fail-stop: a crashed requester unwinds its caller (the dead
        // node stops executing); a crashed responder makes the NIC give
        // up -- the protocol layer above owns recovery.
        if (dead_[src])
            throw sim::NodeDead{};
        if (dead_[dst])
            co_return; // the guard deactivates pending deliveries
        if (attempt > 0)
            statsByNode_[src]
                .retransmits[static_cast<std::size_t>(type)] += 1;
        account(src, type, req_bytes);
        co_await txPort_[src]->occupy(serialize(req_bytes +
                                                cfg_.messageHeaderBytes));
        if (st->respArrived)
            break; // a late response of an earlier copy arrived
        FaultDecision fd = fault_->judge(type, src, dst);
        if (fd.stall > 0)
            txPort_[src]->reserve(fd.stall);
        const std::uint64_t sent_epoch = epoch_;
        if (!fd.drop)
            kernel_.scheduleAs(dst, half + fd.delay,
                               [deliver, dst, sent_epoch,
                                corrupt = fd.corrupt] {
                                   deliver(dst, sent_epoch, corrupt);
                               });
        if (fd.duplicate)
            kernel_.scheduleAs(dst, half + fd.duplicateDelay,
                               [deliver, dst, sent_epoch] {
                                   deliver(dst, sent_epoch, false);
                               });

        // Arm the one-shot latency hedge after the first send: if the
        // home stays silent past the hedge delay, one extra copy goes
        // to the backup replica. The copy is judged on its own
        // src->backup link (escaping the home's grey windows), runs
        // the same idempotent handler, and races the home's response
        // through the shared active guard -- first response wins.
        if (hedge && attempt == 0) {
            kernel_.schedule(
                hedge->delay,
                [this, st, deliver, type, src, backup = hedge->backup,
                 req_bytes] {
                    if (!st->active || st->respArrived ||
                        dead_[backup] || dead_[src])
                        return;
                    hedgedSends_ += 1;
                    account(src, type, req_bytes);
                    txPort_[src]->reserve(serialize(
                        req_bytes + cfg_.messageHeaderBytes));
                    FaultDecision hd = fault_->judge(type, src, backup);
                    if (hd.stall > 0)
                        txPort_[src]->reserve(hd.stall);
                    const std::uint64_t hedge_epoch = epoch_;
                    const Tick hhalf =
                        cfg_.netRoundTrip / 2 + cfg_.nicProcessing;
                    if (!hd.drop)
                        kernel_.scheduleAs(
                            backup, hhalf + hd.delay,
                            [deliver, backup, hedge_epoch,
                             corrupt = hd.corrupt] {
                                deliver(backup, hedge_epoch, corrupt);
                            });
                    if (hd.duplicate)
                        kernel_.scheduleAs(
                            backup, hhalf + hd.duplicateDelay,
                            [deliver, backup, hedge_epoch] {
                                deliver(backup, hedge_epoch, false);
                            });
                });
        }

        // Wait for the response or the retransmission timeout,
        // whichever comes first.
        std::uint32_t gen = ++st->gen;
        kernel_.schedule(rto, [this, st, gen] {
            if (st->active && !st->respArrived && st->gen == gen)
                st->wake.notify(kernel_);
        });
        co_await st->wake.wait();
        if (st->respArrived)
            break;
        rto = std::min(rto * 2, cfg_.tuning.retryTimeoutCap);
    }

    if (hedge && st->servedBy == hedge->backup)
        hedgeWins_ += 1;
    // Feed the latency-SLO tracker: the client-observed RTT of the
    // whole exchange (retransmissions included), attributed to the
    // node that served the winning response.
    if (slo_)
        slo_->observe(src, st->servedBy, kernel_.now() - start);
}

void
Network::post(MsgType type, NodeId src, NodeId dst, std::uint32_t bytes,
              std::function<void()> at_dst)
{
    always_assert(src != dst, "post to self");
    if (fault_ || type == MsgType::Lease ||
        type == MsgType::ViewChange || type == MsgType::Migrate)
        refuseIfThreaded(); // see refuseIfThreaded(): serial paths only
    assertLaneLocalSend(src);
    account(src, type, bytes);
    Tick depart =
        txPort_[src]->reserve(serialize(bytes + cfg_.messageHeaderBytes));
    Tick arrive = depart + cfg_.netRoundTrip / 2 + cfg_.nicProcessing;
    if (!fault_) {
        kernel_.scheduleAtAs(arrive, dst, std::move(at_dst));
        return;
    }
    // One-way messages carry no NIC-level reliability: a dropped copy is
    // simply gone (recovery is the protocol's job), a duplicated copy
    // runs the handler twice. Copies are stamped with the send-instant
    // epoch and fenced at delivery if a view change overtook them.
    FaultDecision fd = fault_->judge(type, src, dst);
    if (fd.stall > 0)
        txPort_[src]->reserve(fd.stall);
    if (fd.drop && !fd.duplicate)
        return;
    const std::uint64_t sent_epoch = epoch_;
    if (fd.drop || !fd.duplicate) {
        // The surviving copy is the duplicate when the primary was
        // dropped on the wire; only the primary carries the injected
        // corruption, so a dropped-primary survivor passes CRC.
        const bool corrupt = !fd.drop && fd.corrupt;
        kernel_.scheduleAtAs(arrive + (fd.drop ? fd.duplicateDelay
                                               : fd.delay),
                             dst,
                             [this, type, sent_epoch, corrupt,
                              h = std::move(at_dst)] {
                                 if (!fenceStale(type, sent_epoch) &&
                                     !crcReject(corrupt))
                                     h();
                             });
        return;
    }
    auto handler =
        std::make_shared<std::function<void()>>(std::move(at_dst));
    auto copy = [this, type, sent_epoch, handler](bool corrupt) {
        if (!fenceStale(type, sent_epoch) && !crcReject(corrupt))
            (*handler)();
    };
    kernel_.scheduleAtAs(arrive + fd.delay, dst,
                         [copy, corrupt = fd.corrupt] { copy(corrupt); });
    kernel_.scheduleAtAs(arrive + fd.duplicateDelay, dst,
                         [copy] { copy(false); });
}

void
Network::stallNode(NodeId node, Tick duration)
{
    if (duration > 0)
        txPort_[node]->reserve(duration);
}

std::uint64_t
Network::messageCount(MsgType t) const
{
    std::uint64_t n = 0;
    for (const NodeStats &st : statsByNode_)
        n += st.msgCount[static_cast<std::size_t>(t)];
    return n;
}

std::uint64_t
Network::totalMessages() const
{
    std::uint64_t n = 0;
    for (const NodeStats &st : statsByNode_)
        for (auto c : st.msgCount)
            n += c;
    return n;
}

std::uint64_t
Network::totalBytes() const
{
    std::uint64_t n = 0;
    for (const NodeStats &st : statsByNode_)
        n += st.bytes;
    return n;
}

std::uint64_t
Network::nodeMessages(NodeId n) const
{
    std::uint64_t c = 0;
    for (auto m : statsByNode_[n].msgCount)
        c += m;
    return c;
}

std::uint64_t
Network::nodeBytes(NodeId n) const
{
    return statsByNode_[n].bytes;
}

std::uint64_t
Network::retransmits(MsgType t) const
{
    std::uint64_t n = 0;
    for (const NodeStats &st : statsByNode_)
        n += st.retransmits[static_cast<std::size_t>(t)];
    return n;
}

std::uint64_t
Network::totalRetransmits() const
{
    std::uint64_t n = 0;
    for (const NodeStats &st : statsByNode_)
        for (auto c : st.retransmits)
            n += c;
    return n;
}

} // namespace hades::net
