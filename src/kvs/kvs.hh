/**
 * @file
 * Key-value store substrate: the four stores of Section VII (HashTable,
 * Map, B-Tree, B+Tree).
 *
 * FaRM-style stores build their indexes out of ordinary records, so an
 * index traversal is a sequence of transactional reads that the
 * protocols must track, validate, and (for remote keys) fetch over
 * RDMA. Each store here is a real data structure: its index nodes are
 * registered as records with the cluster placement (homed on the same
 * node as the keys they index), and a lookup returns the exact list of
 * index records a transaction has to read before touching the data
 * record. Different structures therefore produce genuinely different
 * footprints -- a hash table costs one bucket read, a skip list a tower
 * descent, the trees a root-to-leaf path -- which is what differentiates
 * them in Figure 9.
 *
 * Keys are pre-loaded (populate) and the evaluated workloads perform
 * updates in place, so index nodes are read-only after population
 * (YCSB A/B contain no inserts; the OLTP generators model inserts as
 * writes to pre-allocated rows).
 */

#ifndef HADES_KVS_KVS_HH_
#define HADES_KVS_KVS_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "common/hash.hh"
#include "mem/address_space.hh"

namespace hades::kvs
{

/** One index record a lookup must read. */
struct IndexStep
{
    std::uint64_t record;     //!< registered record id of the index node
    std::uint32_t bytes;      //!< payload size of that node
};

/** Store flavours of Section VII. */
enum class StoreKind
{
    HashTable,
    Map,
    BTree,
    BPlusTree,
};

const char *storeKindName(StoreKind k);

/** Abstract distributed key-value index. */
class KeyValueStore
{
  public:
    virtual ~KeyValueStore() = default;

    virtual StoreKind kind() const = 0;
    const char *name() const { return storeKindName(kind()); }

    /**
     * Bulk-load keys 0..n-1, whose data records are
     * record_base..record_base+n-1. Index nodes are registered with
     * @p placement on the home node of the key's data record.
     */
    virtual void populate(mem::Placement &placement,
                          std::uint64_t num_keys,
                          std::uint64_t record_base = 0) = 0;

    /** Data record id of key @p k. */
    std::uint64_t recordOf(Key k) const { return recordBase_ + k; }

    /**
     * Index records a transaction reads to locate key @p k, in
     * traversal order (the data record k itself is not included).
     */
    virtual void lookup(Key k, std::vector<IndexStep> &out) const = 0;

    /**
     * Index records a range scan of @p count keys starting at @p start
     * must read. The default walks one lookup per key and deduplicates
     * consecutive repeats; ordered stores with linked leaves (B+Tree)
     * override this with a single descent plus the leaf chain.
     */
    virtual void
    scan(Key start, std::uint32_t count,
         std::vector<IndexStep> &out) const
    {
        std::vector<IndexStep> steps;
        for (std::uint32_t i = 0; i < count; ++i) {
            Key k = (start + i) % numKeys_;
            steps.clear();
            lookup(k, steps);
            for (const auto &s : steps)
                if (out.empty() || out.back().record != s.record)
                    out.push_back(s);
        }
    }

    /** Average index steps per lookup (for sanity checks). */
    double
    averageDepth(std::uint64_t probes = 1000) const
    {
        std::vector<IndexStep> steps;
        std::uint64_t total = 0;
        std::uint64_t n = numKeys_ < probes ? numKeys_ : probes;
        for (std::uint64_t k = 0; k < n; ++k) {
            steps.clear();
            lookup(k * (numKeys_ / (n ? n : 1) + 1) % numKeys_, steps);
            total += steps.size();
        }
        return n ? double(total) / double(n) : 0.0;
    }

  protected:
    std::uint64_t numKeys_ = 0;
    std::uint64_t recordBase_ = 0;
    std::uint32_t numNodes_ = 1;
    std::uint32_t salt_ = 0;     //!< disambiguates index ids per store
    std::uint64_t nextSeq_ = 0;  //!< index-node allocation counter

    /** Home node of key @p k (same hash the Placement uses). */
    NodeId
    homeOfKey(Key k) const
    {
        return static_cast<NodeId>(mix64(recordBase_ + k) % numNodes_);
    }

    /** Register one index node of @p bytes on @p node. */
    std::uint64_t
    newIndexRecord(mem::Placement &placement, NodeId node,
                   std::uint32_t bytes)
    {
        std::uint64_t rid = mem::Placement::makeRegisteredId(
            node, (std::uint64_t{salt_} << 32) | nextSeq_++);
        placement.registerRecord(rid, node, bytes);
        return rid;
    }
};

/** Factory for the four evaluated stores. */
std::unique_ptr<KeyValueStore> makeStore(StoreKind kind,
                                         std::uint32_t num_nodes,
                                         std::uint32_t salt = 0);

/**
 * Hash table with per-node bucket arrays and overflow chaining. A
 * lookup reads the 64-byte bucket record and, for overflowed buckets,
 * the chain node holding the key.
 */
class HashTableKvs : public KeyValueStore
{
  public:
    explicit HashTableKvs(std::uint32_t num_nodes,
                 std::uint32_t salt = 0);

    StoreKind kind() const override { return StoreKind::HashTable; }
    void populate(mem::Placement &placement, std::uint64_t num_keys,
                  std::uint64_t record_base = 0) override;
    void lookup(Key k, std::vector<IndexStep> &out) const override;

    static constexpr std::uint32_t kBucketBytes = 64;
    static constexpr std::uint32_t kEntriesPerBucket = 4;

  private:
    struct Partition
    {
        std::uint64_t numBuckets = 0;
        /** keys stored per bucket, in insertion order. */
        std::vector<std::vector<Key>> buckets;
        /** record id of each bucket's main node. */
        std::vector<std::uint64_t> bucketRecord;
        /** record ids of each bucket's overflow chain nodes. */
        std::vector<std::vector<std::uint64_t>> chainRecords;
    };

    std::uint64_t bucketOf(const Partition &p, Key k) const;

    std::vector<Partition> parts_;
};

/**
 * "Map": an ordered map implemented as a skip list (one tower per key).
 * A lookup replays the exact descent, so the trace length is the real
 * number of distinct skip nodes visited.
 */
class SkipListKvs : public KeyValueStore
{
  public:
    explicit SkipListKvs(std::uint32_t num_nodes,
                 std::uint32_t salt = 0);

    StoreKind kind() const override { return StoreKind::Map; }
    void populate(mem::Placement &placement, std::uint64_t num_keys,
                  std::uint64_t record_base = 0) override;
    void lookup(Key k, std::vector<IndexStep> &out) const override;

    static constexpr int kMaxLevel = 8;
    static constexpr std::uint32_t kNodeBytes = 64;

  private:
    struct SkipNode
    {
        Key key;
        std::uint64_t record;
        std::int32_t fwd[kMaxLevel];
    };

    struct Partition
    {
        std::vector<SkipNode> nodes; //!< node 0 is the head sentinel
        int level = 1;
    };

    std::vector<Partition> parts_;
};

/**
 * B-Tree (records in every node, cpp-btree-style). Bulk-loaded from the
 * sorted per-node key lists; a lookup reads the node path from root to
 * the node containing the key.
 */
class BTreeKvs : public KeyValueStore
{
  public:
    explicit BTreeKvs(std::uint32_t num_nodes,
                 std::uint32_t salt = 0);

    StoreKind kind() const override { return StoreKind::BTree; }
    void populate(mem::Placement &placement, std::uint64_t num_keys,
                  std::uint64_t record_base = 0) override;
    void lookup(Key k, std::vector<IndexStep> &out) const override;

    static constexpr std::uint32_t kFanout = 16;
    static constexpr std::uint32_t kNodeBytes = 256;

  private:
    struct Node
    {
        std::vector<Key> keys;
        std::vector<std::int32_t> children; //!< empty for leaves
        std::uint64_t record = 0;
    };

    struct Partition
    {
        std::vector<Node> nodes;
        std::int32_t root = -1;
    };

    std::int32_t buildSubtree(Partition &p, const std::vector<Key> &keys,
                              std::size_t lo, std::size_t hi);

    std::vector<Partition> parts_;
};

/**
 * B+Tree (TLX-style): keys only in inner nodes, all data pointers in
 * leaves; higher inner fanout and shallower data paths than the B-Tree.
 */
class BPlusTreeKvs : public KeyValueStore
{
  public:
    explicit BPlusTreeKvs(std::uint32_t num_nodes,
                 std::uint32_t salt = 0);

    StoreKind kind() const override { return StoreKind::BPlusTree; }
    void populate(mem::Placement &placement, std::uint64_t num_keys,
                  std::uint64_t record_base = 0) override;
    void lookup(Key k, std::vector<IndexStep> &out) const override;

    /** Leaf-chained scan: one descent, then consecutive leaves. */
    void scan(Key start, std::uint32_t count,
              std::vector<IndexStep> &out) const override;

    static constexpr std::uint32_t kInnerFanout = 32;
    static constexpr std::uint32_t kLeafEntries = 16;
    static constexpr std::uint32_t kInnerBytes = 256;
    static constexpr std::uint32_t kLeafBytes = 256;

  private:
    struct Inner
    {
        std::vector<Key> splitKeys;
        std::vector<std::int32_t> children; //!< >=0 inner, <0 ~leaf
        std::uint64_t record = 0;
    };

    struct Leaf
    {
        Key firstKey = 0;
        std::vector<Key> keys;
        std::uint64_t record = 0;
    };

    struct Partition
    {
        std::vector<Inner> inners;
        std::vector<Leaf> leaves;
        std::int32_t root = 0;     //!< index into inners, or -1 if
                                   //!< a single leaf holds everything
        bool rootIsLeaf = false;
    };

    std::vector<Partition> parts_;
};

} // namespace hades::kvs

#endif // HADES_KVS_KVS_HH_
