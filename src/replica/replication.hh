/**
 * @file
 * Fault-tolerance and durability substrate (Section V-A, "Fault-
 * Tolerance and Durability").
 *
 * The paper outlines the design: every write additionally updates
 * replicas on other nodes; replica updates must complete by commit
 * time; durability requires the updated replicas to be persisted
 * (SSD/NVM) by commit. The mechanism piggybacks on HADES' two-phase
 * commit: the coordinator's Intend-to-commit fans out to replica
 * nodes, each persists the update to *temporary durable storage* and
 * answers with an Ack; once all Acks arrive the Validation message
 * promotes the temporary image to permanent storage. A missing Ack
 * (lost message / failed node) aborts the transaction on all replicas.
 *
 * This module provides:
 *  - a placement rule mapping each record to its K backup nodes,
 *  - per-node ReplicaStore with a two-stage (staged -> durable) image,
 *  - persistence timing (NVM-like by default, SSD configurable),
 *  - failure injection: a per-message loss probability and explicit
 *    node-failure switches, so the abort path is actually exercised.
 */

#ifndef HADES_REPLICA_REPLICATION_HH_
#define HADES_REPLICA_REPLICATION_HH_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/time.hh"
#include "common/types.hh"
#include "txn/ground_truth.hh"

namespace hades::replica
{

/** Durability medium for staged replica images. */
enum class Medium
{
    Nvm, //!< ~300ns persist
    Ssd, //!< ~10us persist
};

/** Replication configuration. */
struct ReplicationConfig
{
    /** Number of backup copies per record (0 disables replication). */
    std::uint32_t degree = 0;
    Medium medium = Medium::Nvm;
    /** Probability that a replica-update message is lost (failure
     *  injection; lost updates abort the transaction). */
    double messageLossProbability = 0.0;

    bool enabled() const { return degree > 0; }

    /** Persist latency of one staged image. */
    Tick
    persistLatency() const
    {
        return medium == Medium::Nvm ? ns(300) : us(10);
    }
};

/**
 * One node's replica storage: staged images (temporary durable
 * storage, keyed by the writing transaction) and the permanent
 * durable image.
 */
class ReplicaStore
{
  public:
    /** A permanently stored image: the value plus the commit sequence
     *  number of the transaction that wrote it. Promotions apply
     *  max-seq-wins, so reordered/replayed promote deliveries (message
     *  delay, duplication, recovery re-promotion) can never roll a
     *  record back to an older committed value. */
    struct DurableImage
    {
        std::int64_t value = 0;
        std::uint64_t seq = 0;
    };

    /** Stage a value for @p record written by transaction @p tx. */
    void
    stage(std::uint64_t tx, std::uint64_t record, std::int64_t value)
    {
        staged_[tx].emplace_back(record, value);
    }

    /**
     * Promote a transaction's staged images to permanent storage with
     * the commit sequence the coordinator assigned at its serialization
     * point. Idempotent: replayed copies find no staged entry, and
     * max-seq-wins makes re-promotion harmless.
     */
    void
    promote(std::uint64_t tx, std::uint64_t seq)
    {
        auto it = staged_.find(tx);
        if (it == staged_.end())
            return;
        for (auto &[record, value] : it->second)
            installDurable(record, value, seq);
        staged_.erase(it);
    }

    /** Install one durable image directly (recovery re-replication and
     *  in-doubt promotion), max-seq-wins. */
    void
    installDurable(std::uint64_t record, std::int64_t value,
                   std::uint64_t seq)
    {
        auto &img = durable_[record];
        if (img.seq <= seq) {
            always_assert(img.seq != seq || img.value == value ||
                              img.seq == 0,
                          "conflicting durable images with equal seq");
            img = DurableImage{value, seq};
        }
    }

    /** Drop a transaction's staged images (abort path). */
    void discard(std::uint64_t tx) { staged_.erase(tx); }

    /**
     * Durable value of @p record, or nullopt if this store never
     * promoted an image for it. "Missing" is distinct from value 0:
     * recovery must never fabricate a zero image for a record that was
     * never replicated here.
     */
    std::optional<std::int64_t>
    durableValue(std::uint64_t record) const
    {
        auto it = durable_.find(record);
        if (it == durable_.end())
            return std::nullopt;
        return it->second.value;
    }

    /** Full durable image (value + commit seq), or nullopt. */
    std::optional<DurableImage>
    durableImage(std::uint64_t record) const
    {
        auto it = durable_.find(record);
        if (it == durable_.end())
            return std::nullopt;
        return it->second;
    }

    bool hasDurable(std::uint64_t record) const
    {
        return durable_.count(record) != 0;
    }

    std::size_t stagedTxns() const { return staged_.size(); }
    std::size_t durableRecords() const { return durable_.size(); }

    /** Ids of transactions with staged (un-promoted, un-discarded)
     *  images, sorted -- the in-doubt scan of recovery iterates this. */
    std::vector<std::uint64_t>
    stagedTxIds() const
    {
        std::vector<std::uint64_t> out;
        out.reserve(staged_.size());
        for (const auto &kv : staged_) // det-lint: ordered-ok (sorted)
            out.push_back(kv.first);
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    std::unordered_map<
        std::uint64_t,
        std::vector<std::pair<std::uint64_t, std::int64_t>>>
        staged_;
    std::unordered_map<std::uint64_t, DurableImage> durable_;
};

/**
 * Cluster-wide replica placement and state: record -> K backup nodes
 * (primary excluded), one ReplicaStore per node, plus failure
 * injection counters.
 */
class ReplicaManager
{
  public:
    ReplicaManager(const ReplicationConfig &cfg, std::uint32_t num_nodes,
                   std::uint64_t seed = 0xfee1)
        : cfg_(cfg), numNodes_(num_nodes), rng_(seed),
          stores_(num_nodes), dead_(num_nodes, 0), present_(num_nodes, 1)
    {}

    const ReplicationConfig &config() const { return cfg_; }

    /**
     * Backup nodes of a record homed at @p primary: the next K nodes
     * in a hash-rotated ring, skipping the primary (chain placement).
     * Ring *positions* are fixed for the lifetime of the cluster: a
     * node marked dead (permanent crash) leaves its slot empty rather
     * than pulling the next live node in, so the backup set after a
     * failure is always a subset of the original set. (Growing the
     * ring would hand a slot to a node that never received the
     * in-flight promotes of earlier commits, leaving it with a stale
     * image no protocol message will ever correct; effective
     * redundancy instead degrades by one until an out-of-band
     * re-replication -- out of scope for the single-failure model --
     * restores it.)
     */
    std::vector<NodeId>
    backupsOf(std::uint64_t record, NodeId primary) const
    {
        std::vector<NodeId> out;
        if (!cfg_.enabled() || numNodes_ < 2)
            return out;
        std::uint32_t k = std::min(cfg_.degree, numNodes_ - 1);
        std::uint64_t start = mix64(record ^ 0xb4c4) % numNodes_;
        std::uint32_t slots = 0;
        for (std::uint32_t i = 0; slots < k && i < numNodes_; ++i) {
            NodeId n = NodeId((start + i) % numNodes_);
            if (n == primary)
                continue;
            // Membership: a node not (or no longer) in the cluster is
            // invisible to the ring -- skipped *without* consuming a
            // slot, so the window slides past it. When every node is
            // present (the default) this is a no-op and the rings are
            // bit-identical to the pre-membership layout. A node
            // entering or leaving the present set shifts ring windows,
            // which is exactly why the MembershipManager runs its
            // convergent image-resync sweep after every transition.
            if (present_[n] == 0)
                continue;
            slots += 1;
            if (dead_[n] == 0)
                out.push_back(n);
        }
        return out;
    }

    /** Permanently remove @p node from every backup ring (and from the
     *  divergence scan): its store's images are unreachable. */
    void
    markDead(NodeId node)
    {
        if (dead_[node] == 0) {
            dead_[node] = 1;
            liveNodes_ -= 1;
        }
    }

    bool nodeDead(NodeId node) const { return dead_[node] != 0; }
    std::uint32_t liveNodes() const { return liveNodes_; }

    /** Elastic membership: admit @p node into the backup rings (join)
     *  or remove it without the dead-slot tombstone (planned drain --
     *  unlike a crash, the ring may re-close around the gap because
     *  the MembershipManager resyncs images afterwards). */
    void markPresent(NodeId node) { present_[node] = 1; }
    void markAbsent(NodeId node) { present_[node] = 0; }

    /**
     * Commit sequence numbers. A coordinator draws one at its
     * serialization point (atomically with applying its writes) and
     * stamps every promote of the transaction with it; max-seq-wins at
     * the stores then reconstructs commit order no matter how promote
     * deliveries reorder. Models the LSN of a durable commit record.
     */
    std::uint64_t nextCommitSeq() { return ++commitSeq_; }

    /**
     * Record, atomically with a coordinator's serialization point, that
     * @p record's ground-truth value is now the one stamped @p seq.
     * This is the durable part of the commit record that names the
     * written records (the promotes themselves may still be in flight
     * arbitrarily long after the decision). Recovery's re-replication
     * of a re-homed record reads the committed value from the new
     * primary and needs this seq to stamp the copies, so late promote
     * deliveries on either side of the view change resolve correctly
     * under max-seq-wins.
     */
    void
    noteCommittedWrite(std::uint64_t record, std::uint64_t seq)
    {
        auto &s = recordSeq_[record];
        s = std::max(s, seq);
    }

    /** Commit seq of the last serialized write of @p record, or
     *  nullopt if no committed transaction ever wrote it. */
    std::optional<std::uint64_t>
    lastCommittedSeq(std::uint64_t record) const
    {
        auto it = recordSeq_.find(record);
        if (it == recordSeq_.end())
            return std::nullopt;
        return it->second;
    }

    ReplicaStore &store(NodeId n) { return stores_[n]; }
    const ReplicaStore &store(NodeId n) const { return stores_[n]; }

    /** Failure injection: does this replica-update message get lost? */
    bool
    injectLoss()
    {
        if (cfg_.messageLossProbability <= 0.0)
            return false;
        bool lost = rng_.chance(cfg_.messageLossProbability);
        lostMessages_ += lost ? 1 : 0;
        return lost;
    }

    /**
     * Recovery check: for every record the workload ever committed,
     * every *live* backup must hold a durable image equal to the
     * ground-truth committed value -- not merely agree with the other
     * backups (replicas that agree on a stale value are still lost
     * data), and a single-backup ring is checked like any other.
     * @p home_of maps a record to its current primary.
     * @return number of records with a missing or wrong backup image.
     */
    template <typename HomeOf>
    std::uint64_t
    divergentRecords(const txn::GroundTruth &gt, HomeOf &&home_of) const
    {
        std::uint64_t bad = 0;
        for (std::uint64_t rec : gt.touchedRecords()) {
            const std::int64_t want = gt.read(rec);
            for (NodeId b : backupsOf(rec, home_of(rec))) {
                auto got = stores_[b].durableValue(rec);
                if (!got || *got != want) {
                    ++bad;
                    break;
                }
            }
        }
        return bad;
    }

    std::uint64_t lostMessages() const { return lostMessages_; }
    std::uint64_t replicatedCommits() const { return commits_; }
    std::uint64_t replicationAborts() const { return aborts_; }

    void noteCommit() { ++commits_; }
    void noteAbort() { ++aborts_; }

  private:
    ReplicationConfig cfg_;
    std::uint32_t numNodes_;
    Rng rng_;
    std::vector<ReplicaStore> stores_;
    std::vector<char> dead_;
    /** Membership mask: spares start absent, drained nodes end absent.
     *  All-ones (the default) reproduces the fixed-ring layout. */
    std::vector<char> present_;
    std::uint32_t liveNodes_ = numNodes_;
    std::uint64_t commitSeq_ = 0;
    /** record -> commit seq of its last serialized write. Lookup only,
     *  never iterated (iteration order would be nondeterministic). */
    std::unordered_map<std::uint64_t, std::uint64_t> recordSeq_;
    std::uint64_t lostMessages_ = 0;
    std::uint64_t commits_ = 0;
    std::uint64_t aborts_ = 0;
};

} // namespace hades::replica

#endif // HADES_REPLICA_REPLICATION_HH_
