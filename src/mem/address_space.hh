/**
 * @file
 * Cluster address-space layout and record placement.
 *
 * Each node owns a disjoint region of the simulated physical address
 * space, selected by the top address bits. Database records are
 * "statically distributed across all the nodes in a uniform manner"
 * (Section VII); key-value index structures allocate their internal
 * nodes from the same per-node heaps so index traversals generate
 * realistic extra line accesses on the record's home node.
 */

#ifndef HADES_MEM_ADDRESS_SPACE_HH_
#define HADES_MEM_ADDRESS_SPACE_HH_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace hades::mem
{

/** Shift that selects the owning node from an address. */
inline constexpr unsigned kNodeShift = 44;

/** Node that homes address @p a. */
inline NodeId
homeOfAddr(Addr a)
{
    return static_cast<NodeId>(a >> kNodeShift);
}

/** A bump allocator for one node's region of the address space. */
class NodeHeap
{
  public:
    explicit NodeHeap(NodeId node)
        : node_(node), next_(Addr{node} << kNodeShift)
    {}

    /** Allocate @p bytes aligned to a cache line. */
    Addr
    allocate(std::uint64_t bytes)
    {
        Addr a = next_;
        std::uint64_t aligned =
            (bytes + kCacheLineBytes - 1) & ~std::uint64_t{63};
        next_ += aligned;
        always_assert(homeOfAddr(next_) == node_, "node heap overflow");
        return a;
    }

  private:
    NodeId node_;
    Addr next_;
};

/**
 * Uniform static placement of fixed-size records across the cluster,
 * plus per-node heaps for auxiliary allocations (index nodes, write-set
 * buffers).
 */
class Placement
{
  public:
    /**
     * @param num_nodes    cluster size N
     * @param num_records  number of records pre-allocated per table
     * @param record_bytes bytes each record occupies in memory (the
     *                     protocol config decides whether this includes
     *                     SW metadata)
     * @param owner_nodes  nodes the static hash stripes records over
     *                     (elastic membership: trailing spare nodes own
     *                     nothing until a join migrates records to
     *                     them). 0 means all num_nodes own records.
     */
    Placement(std::uint32_t num_nodes, std::uint64_t num_records,
              std::uint32_t record_bytes, std::uint32_t owner_nodes = 0)
        : numRecords_(num_records), recordBytes_(roundUp(record_bytes)),
          owners_(owner_nodes == 0 || owner_nodes > num_nodes
                      ? num_nodes
                      : owner_nodes)
    {
        for (NodeId n = 0; n < num_nodes; ++n)
            heaps_.emplace_back(n);
        recordBase_.resize(num_nodes);
        // Pre-reserve a contiguous record region on every node; records
        // are striped record->node by a hash for uniform distribution.
        std::vector<std::uint64_t> perNode(num_nodes, 0);
        for (std::uint64_t r = 0; r < num_records; ++r)
            perNode[homeOf(r)] += 1;
        for (NodeId n = 0; n < num_nodes; ++n)
            recordBase_[n] =
                heaps_[n].allocate(perNode[n] * recordBytes_ + 64);
        slotWithinNode_.resize(num_nodes, 0);
        recordAddr_.resize(num_records);
        for (std::uint64_t r = 0; r < num_records; ++r) {
            NodeId n = homeOf(r);
            recordAddr_[r] =
                recordBase_[n] + slotWithinNode_[n] * recordBytes_;
            slotWithinNode_[n] += 1;
        }
    }

    /**
     * Record ids with this bit set are *registered* records (index
     * nodes, auxiliary structures) whose home node is explicit in bits
     * 56..48 rather than hash-derived.
     */
    static constexpr std::uint64_t kRegisteredBit = std::uint64_t{1}
                                                    << 63;

    /** Build a registered record id homed at @p node. */
    static std::uint64_t
    makeRegisteredId(NodeId node, std::uint64_t seq)
    {
        return kRegisteredBit | (std::uint64_t{node} << 48) | seq;
    }

    /**
     * Register an auxiliary record (e.g. a KV index node) of @p bytes
     * homed at @p node. @return its address.
     */
    Addr
    registerRecord(std::uint64_t rid, NodeId node, std::uint32_t bytes)
    {
        Addr a = heaps_[node].allocate(roundUp(bytes));
        registered_.emplace(rid, a);
        registeredBytes_.emplace(rid, roundUp(bytes));
        return a;
    }

    /** Registered (auxiliary/index) record ids currently homed at
     *  @p node, sorted. A planned drain migrates these too -- a node
     *  that left the cluster must not keep serving index traversals. */
    std::vector<std::uint64_t>
    registeredHomedAt(NodeId node) const
    {
        std::vector<std::uint64_t> out;
        for (const auto &kv : registered_) // det-lint: ordered-ok (sorted)
            if (homeOf(kv.first) == node)
                out.push_back(kv.first);
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Allocation size of a registered record (for rehome). */
    std::uint32_t
    registeredBytesOf(std::uint64_t rid) const
    {
        auto it = registeredBytes_.find(rid);
        always_assert(it != registeredBytes_.end(),
                      "unregistered auxiliary record");
        return it->second;
    }

    /** Home node of record @p r: the re-homing overlay (crash
     *  recovery) wins over the static hash placement. */
    NodeId
    homeOf(std::uint64_t r) const
    {
        if (!rehomedHome_.empty()) {
            auto it = rehomedHome_.find(r);
            if (it != rehomedHome_.end())
                return it->second;
        }
        return staticHomeOf(r);
    }

    /** Static (pre-re-homing) home of record @p r: a pure function of
     *  the id, stable for the whole run even across view changes.
     *  GroundTruth buckets by this, so a re-homed record's committed
     *  state stays findable. */
    NodeId
    staticHomeOf(std::uint64_t r) const
    {
        if (r & kRegisteredBit)
            return static_cast<NodeId>((r >> 48) & 0xff);
        return static_cast<NodeId>(mix64(r) % std::uint64_t(owners_));
    }

    /** Base address of record @p r. */
    Addr
    addrOf(std::uint64_t r) const
    {
        if (!rehomedAddr_.empty()) {
            auto it = rehomedAddr_.find(r);
            if (it != rehomedAddr_.end())
                return it->second;
        }
        if (r & kRegisteredBit) {
            auto it = registered_.find(r);
            always_assert(it != registered_.end(),
                          "unregistered auxiliary record");
            return it->second;
        }
        return recordAddr_[r];
    }

    /**
     * Crash recovery / live migration: move record @p r to @p node,
     * allocating fresh backing storage from the new home's heap (a
     * dead node's memory is unreachable; a drained node's is handed
     * back). All subsequent homeOf/addrOf lookups resolve to the new
     * location; the static hash placement of every other record is
     * untouched.
     */
    void
    rehome(std::uint64_t r, NodeId node, std::uint32_t bytes)
    {
        rehomedHome_[r] = node;
        rehomedAddr_[r] = heaps_[node].allocate(roundUp(bytes));
    }

    std::uint32_t recordBytes() const { return recordBytes_; }
    std::uint64_t numRecords() const { return numRecords_; }

  private:
    static std::uint32_t
    roundUp(std::uint32_t bytes)
    {
        return (bytes + kCacheLineBytes - 1) & ~std::uint32_t{63};
    }

    std::uint64_t numRecords_;
    std::uint32_t recordBytes_;
    std::uint32_t owners_;
    std::vector<NodeHeap> heaps_;
    std::vector<Addr> recordBase_;
    std::vector<std::uint64_t> slotWithinNode_;
    std::vector<Addr> recordAddr_;
    std::unordered_map<std::uint64_t, Addr> registered_;
    std::unordered_map<std::uint64_t, std::uint32_t> registeredBytes_;
    /** Crash-recovery overlay: records moved off a dead home. Lookups
     *  are point queries, so the unordered maps stay deterministic. */
    std::unordered_map<std::uint64_t, NodeId> rehomedHome_;
    std::unordered_map<std::uint64_t, Addr> rehomedAddr_;
};

} // namespace hades::mem

#endif // HADES_MEM_ADDRESS_SPACE_HH_
