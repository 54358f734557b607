/**
 * @file
 * HADES SmartNIC state: Modules 4a and 4b of Figure 5.
 *
 * Module 4a lives in the NIC of node y and holds, for every in-progress
 * *remote* transaction i that has accessed data homed in y, a pair of
 * Bloom filters (RemoteReadBF_i, RemoteWriteBF_i) encoding the local
 * addresses read/written by i.
 *
 * Module 4b lives in the NIC of the *local* node x of transaction i and
 * records (upper structure) the remote addresses written by i, tagged by
 * remote node id, with a pointer to a local buffer holding the written
 * values, and (lower structure) the set of remote nodes homing data read
 * or written by i. Both are consumed at commit.
 */

#ifndef HADES_NET_HADES_NIC_HH_
#define HADES_NET_HADES_NIC_HH_

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace hades::net
{

/** Module 4a entry: the BF pair of one remote transaction at this
 *  node, plus the exact shadow sets behind the filters. The shadow
 *  sets are the transaction's authoritative remote footprint at this
 *  home: inserts happen in the remote-access handler on the home's own
 *  lane, and every probe (commit L-R scans, Intend-to-commit covers
 *  checks, audit exactness checks) reads them on that same lane, so
 *  the footprint never crosses a lane boundary. */
// hades-analyze: lane-escape-ok (home-NIC state: installed, probed, and cleared only by events delivered to the owning node's lane through the window-barrier mailboxes)
struct RemoteTxFilters
{
    bloom::BloomFilter readBf;
    bloom::BloomFilter writeBf;
    /** Exact lines behind readBf / writeBf (ordered: conflict scans
     *  iterate these and their order reaches squash decisions). */
    std::set<Addr> readLines;
    std::set<Addr> writeLines;

    RemoteTxFilters(const BloomParams &rd, const BloomParams &wr)
        : readBf(rd.bits, rd.numHashes), writeBf(wr.bits, wr.numHashes)
    {}

    void
    insertRead(Addr line)
    {
        readBf.insert(line);
        readLines.insert(line);
    }

    void
    insertWrite(Addr line)
    {
        writeBf.insert(line);
        writeLines.insert(line);
    }

    bool readsContain(Addr line) const
    {
        return readLines.contains(line);
    }

    bool writesContain(Addr line) const
    {
        return writeLines.contains(line);
    }
};

/** Module 4b: per-local-transaction remote-write bookkeeping. */
// hades-analyze: lane-escape-ok (per-local-txn NIC bookkeeping reached via the owning node's nic.localState(id), always on that node's own lane -- remote handlers never touch Module 4b)
struct LocalTxRemoteState
{
    /** Upper structure: remote node -> address ranges written there. */
    std::map<NodeId, std::vector<AddrRange>> writesByNode;
    /** Lower structure: remote nodes homing data this txn read/wrote. */
    std::set<NodeId> nodesInvolved;
    /** Bytes buffered locally for the remote writes (Data Location). */
    std::uint64_t bufferedBytes = 0;

    bool
    empty() const
    {
        return writesByNode.empty() && nodesInvolved.empty();
    }
};

/** The HADES hardware state of one node's NIC. */
// hades-analyze: lane-escape-ok (per-node NIC state confined to the owning lane: local_ is touched by the owning node's own transactions, and remote_ installs/probes/clears run inside message handlers delivered to this node's lane at a window barrier)
class HadesNicState
{
  public:
    explicit HadesNicState(const ClusterConfig &cfg) : cfg_(cfg) {}

    // --- Module 4a: filters for remote transactions ------------------------

    /** Get-or-create the BF pair of remote transaction @p tx. */
    RemoteTxFilters &
    remoteFilters(std::uint64_t tx)
    {
        auto it = remote_.find(tx);
        if (it == remote_.end()) {
            it = remote_
                     .emplace(tx, RemoteTxFilters{cfg_.nicReadBf,
                                                  cfg_.nicWriteBf})
                     .first;
        }
        return it->second;
    }

    /** Does remote transaction @p tx have filters here? */
    bool
    hasRemoteFilters(std::uint64_t tx) const
    {
        return remote_.contains(tx);
    }

    /** Drop @p tx's filters (commit step 5 / squash cleanup). */
    void clearRemoteFilters(std::uint64_t tx) { remote_.erase(tx); }

    /**
     * Check a line against the Remote read/write BFs of every remote
     * transaction other than @p self.
     * @return packed tx ids whose filters (may) contain the line.
     */
    std::vector<std::uint64_t>
    conflictingRemoteTxns(Addr line, std::uint64_t self,
                          bool check_reads) const
    {
        std::vector<std::uint64_t> out;
        const bloom::LineHash h(line);
        for (const auto &[tx, f] : remote_) {
            if (tx == self)
                continue;
            bool hit = f.writeBf.mayContain(h) ||
                       (check_reads && f.readBf.mayContain(h));
            if (hit)
                out.push_back(tx);
        }
        return out;
    }

    /** Number of remote transactions tracked (occupancy stat). */
    std::size_t remoteTxCount() const { return remote_.size(); }

    /** All tracked remote transactions (iteration for conflict scans). */
    const std::map<std::uint64_t, RemoteTxFilters> &
    remote() const
    {
        return remote_;
    }

    // --- Module 4b: local transactions' remote state ------------------------

    LocalTxRemoteState &localState(std::uint64_t tx)
    {
        return local_[tx];
    }

    /** Does @p tx have Module 4b state here? (No default-create.) */
    bool hasLocalState(std::uint64_t tx) const
    {
        return local_.contains(tx);
    }

    /** Number of local transactions tracked (drain checks). */
    std::size_t localTxCount() const { return local_.size(); }

    void clearLocalState(std::uint64_t tx) { local_.erase(tx); }

  private:
    const ClusterConfig &cfg_;
    /** Ordered: conflict scans iterate this and their enumeration
     *  order reaches protocol decisions (squash victim selection). */
    std::map<std::uint64_t, RemoteTxFilters> remote_;
    std::unordered_map<std::uint64_t, LocalTxRemoteState> local_;
};

} // namespace hades::net

#endif // HADES_NET_HADES_NIC_HH_
