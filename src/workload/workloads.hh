/**
 * @file
 * Workload generators for the Section VII applications.
 *
 * Four key-value stores (HashTable, Map, B-Tree, B+Tree) run YCSB with
 * 5-request transactions over a zipfian key distribution, and three
 * OLTP applications (TPC-C, TATP, Smallbank) issue their canonical
 * transaction mixes directly against partitioned record tables. Every
 * generator emits txn::TxnProgram values; the protocol engines are the
 * only component that decides what a request costs.
 *
 * The paper-scale table sizes (4M keys, 10M items, 1M subscribers, 5M
 * accounts) are defaults; the bench harness scales them down so that a
 * full sweep of every figure finishes in minutes, which leaves the
 * access *patterns* (mix, requests per transaction, skew, granularity,
 * locality) intact.
 */

#ifndef HADES_WORKLOAD_WORKLOADS_HH_
#define HADES_WORKLOAD_WORKLOADS_HH_

#include <cstdint>
#include <memory>
#include <string>

#include "common/config.hh"
#include "common/rng.hh"
#include "kvs/kvs.hh"
#include "mem/address_space.hh"
#include "txn/program.hh"

namespace hades::workload
{

/** The applications of Section VII. */
enum class AppKind
{
    YcsbA,        //!< workload-A: 50% writes, 50% reads
    YcsbB,        //!< workload-B: 5% writes, 95% reads
    YcsbE,        //!< workload-E: 95% short scans, 5% writes
    YcsbWriteOnly,//!< 100%WR (Figure 3)
    YcsbHalf,     //!< 50%WR-50%RD (Figure 3)
    YcsbReadOnly, //!< 100%RD (Figure 3)
    Tpcc,
    Tatp,
    Smallbank,
};

/** Parameters shared by all generators. */
struct WorkloadConfig
{
    std::uint32_t numNodes = 5;
    /** Fraction of requests homed at the coordinator; <0 = uniform. */
    double forcedLocalFraction = -1.0;
    /** Scaled table size (keys / items / subscribers / accounts). */
    std::uint64_t scaleKeys = 200'000;
    std::uint32_t reqsPerTxn = 5;
    double zipfTheta = 0.99;
    /** Disambiguates record/index id spaces when workloads share a
     *  cluster (space-shared mixes, Figures 14/15). */
    std::uint32_t salt = 0;
};

/** A stream of transaction programs. */
class WorkloadGenerator
{
  public:
    virtual ~WorkloadGenerator() = default;

    /** Display label, e.g. "HT-wA" or "TPCC". */
    virtual std::string label() const = 0;

    /** Data records the workload needs pre-placed. */
    virtual std::uint64_t numRecords() const = 0;

    /**
     * Attach to a cluster placement: data records occupy ids
     * [record_base, record_base + numRecords()), and any index
     * structures register their nodes.
     */
    virtual void bind(mem::Placement &placement,
                      std::uint64_t record_base) = 0;

    /**
     * Generate the next transaction for a coordinator on @p node.
     *
     * Must be a pure function of (@p rng, @p node): it may advance
     * @p rng but must read no other mutable state and write none. The
     * runner relies on this to replay each context's program stream at
     * setup from a copy of the context's Rng when it certifies a run
     * lane-closed (DESIGN.md section 11). A generator that breaks it
     * makes the replayed run differ from the serial oracle, which
     * Golden.PinnedDigestsMatchParent pins and the threaded
     * differential tests compare against.
     */
    virtual txn::TxnProgram next(Rng &rng, NodeId node) = 0;

  protected:
    explicit WorkloadGenerator(const WorkloadConfig &cfg) : cfg_(cfg) {}

    /**
     * Locality shaping (Figure 12b): remap @p record_index (an offset
     * into this workload's data records) so that its home is (or is
     * not) @p node with the configured probability. Linear probing
     * within the table preserves the popularity skew.
     */
    std::uint64_t
    shapeLocality(Rng &rng, std::uint64_t record_index,
                  std::uint64_t table_size, NodeId node) const
    {
        if (cfg_.forcedLocalFraction < 0.0)
            return record_index;
        bool want_local = rng.chance(cfg_.forcedLocalFraction);
        if (table_size == 0)
            return record_index;
        // One division to find the start; the probe then wraps.
        std::uint64_t cand = record_index % table_size;
        for (std::uint64_t i = 0; i < table_size; ++i) {
            // The static home, not homeOf(): it is a pure function of
            // the id, so next() stays one of (rng, node).
            NodeId home = placement_->staticHomeOf(recordBase_ + cand);
            if ((home == node) == want_local)
                return cand;
            if (++cand == table_size)
                cand = 0;
        }
        return record_index;
    }

    /** Every bind() starts here: keep the placement and this
     *  workload's first record id. */
    void
    attach(const mem::Placement &placement, std::uint64_t record_base)
    {
        placement_ = &placement;
        recordBase_ = record_base;
    }

    WorkloadConfig cfg_;
    const mem::Placement *placement_ = nullptr;
    std::uint64_t recordBase_ = 0;
};

/** Factory; @p store is only used by the YCSB variants. */
std::unique_ptr<WorkloadGenerator> makeWorkload(
    AppKind app, kvs::StoreKind store, const WorkloadConfig &cfg);

/** Short name, e.g. "TPCC", "TATP", "Smallbank", "wA", "wB". */
const char *appKindName(AppKind app);

} // namespace hades::workload

#endif // HADES_WORKLOAD_WORKLOADS_HH_
