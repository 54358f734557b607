/**
 * @file
 * Experiment runner: builds a cluster (System), binds workloads,
 * instantiates one of the three protocol engines, drives every
 * hardware context with a stream of transactions, and collects the
 * metrics the paper's figures report.
 *
 * This is the top of the public API: every bench binary and example is
 * a thin wrapper over RunSpec -> runOne()/runMix().
 */

#ifndef HADES_CORE_RUNNER_HH_
#define HADES_CORE_RUNNER_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "common/config.hh"
#include "kvs/kvs.hh"
#include "protocol/engine.hh"
#include "replica/replication.hh"
#include "txn/txn_stats.hh"
#include "workload/workloads.hh"

namespace hades::core
{

/** One workload of a (possibly space-shared) run. */
struct MixEntry
{
    workload::AppKind app = workload::AppKind::YcsbA;
    kvs::StoreKind store = kvs::StoreKind::HashTable;
};

/** Everything one simulation needs. */
struct RunSpec
{
    ClusterConfig cluster;
    protocol::EngineKind engine = protocol::EngineKind::Baseline;
    /** Workloads; cores are split into contiguous blocks, one per
     *  entry (Figures 14/15 space sharing). */
    std::vector<MixEntry> mix{MixEntry{}};
    /** Committed transactions each hardware context contributes. */
    std::uint64_t txnsPerContext = 200;
    /** Scaled table size handed to the generators. */
    std::uint64_t scaleKeys = 100'000;
    /** Section V-A fault tolerance (degree 0 = off; HADES engine). */
    replica::ReplicationConfig replication;
    /** Run the correctness auditor (serializability + invariant
     *  checks) over this run; a violation aborts the process. On by
     *  default in debug/audit builds. Purely observational: audited
     *  and unaudited runs produce identical results. */
    bool audit = audit::kDefaultEnabled;
    /**
     * Kernel shard count (1 = the serial oracle). Any value produces
     * bit-identical results: shards > 1 selects the sharded
     * deterministic executor, upgraded to one worker thread per shard
     * when the spec qualifies for threaded execution (all-local OLTP
     * mix, no faults / recovery / replication / audit -- see DESIGN.md
     * section 11). Tuning knobs live in ClusterConfig::sharding.
     */
    std::uint32_t shards = 1;
};

/** Metrics extracted from one simulation. */
struct RunResult
{
    std::string label;
    txn::EngineStats stats;
    Tick simTime = 0;

    double throughputTps = 0;  //!< committed transactions per second
    double meanLatencyUs = 0;  //!< committed txn mean latency
    double p95LatencyUs = 0;   //!< committed txn tail latency
    double p50LatencyUs = 0;

    /** Mean phase latencies (us) of committed transactions. */
    double execUs = 0, validationUs = 0, commitUs = 0;

    /** Table I overhead category share of total transaction time
     *  (Baseline / HADES-H local path; zero for HADES). */
    std::array<double, std::size_t(txn::Overhead::NumCategories)>
        overheadShare{};

    /** Share of total transaction time not attributed to a Table I
     *  category ("Other Time" in Figure 3). */
    double otherShare = 0;

    /** Squash rate: squashes / attempts. */
    double squashRate = 0;
    /** LLC speculative-eviction squashes / committed (Section VIII-C). */
    double evictionSquashRate = 0;
    /** Bloom filter false positives / conflict checks (VIII-C). */
    double bfFalsePositiveRate = 0;

    /** Section V-A replication outcome (when enabled). */
    std::uint64_t replicatedCommits = 0;
    std::uint64_t replicationAborts = 0;
    std::uint64_t lostReplicaMessages = 0;

    /** Fault-injection outcome (all zero when faults are disabled). */
    std::uint64_t faultDrops = 0;      //!< message copies dropped
    std::uint64_t faultDuplicates = 0; //!< message copies duplicated
    std::uint64_t faultDelays = 0;     //!< message copies delayed
    std::uint64_t faultNicStalls = 0;  //!< injected NIC stalls
    std::uint64_t faultCrashDrops = 0; //!< drops due to crash windows
    std::uint64_t partitionDrops = 0;  //!< drops on partitioned links
    std::uint64_t partitionHeals = 0;  //!< partition windows healed in-run
    std::uint64_t corruptDrops = 0;    //!< NIC CRC-rejected deliveries
    std::uint64_t netRetransmits = 0;  //!< NIC-level RC retransmissions
    std::uint64_t timeoutResends = 0;  //!< commit-phase Ack-timeout resends
    std::uint64_t reliableResends = 0; //!< reliable one-way resends
    std::uint64_t timeoutSquashes = 0; //!< CommitTimeout squash-and-retries

    /** Crash-recovery outcome (src/recovery/; all zero unless
     *  ClusterConfig::recovery.enabled and a node permanently died). */
    bool recoveryEnabled = false;       //!< recovery subsystem was on
    std::uint64_t leaseProbes = 0;      //!< lease renewal round trips
    std::uint64_t viewChanges = 0;      //!< view changes executed
    std::uint64_t promotedRecords = 0;  //!< records re-homed to a backup
    std::uint64_t inDoubtCommitted = 0; //!< in-doubt txns committed
    std::uint64_t inDoubtAborted = 0;   //!< in-doubt txns aborted
    std::uint64_t replayedWrites = 0;   //!< journaled writes replayed
    std::uint64_t resyncedImages = 0;   //!< backup images re-replicated
    std::uint64_t fencedStaleMessages = 0; //!< old-epoch copies dropped
    std::uint64_t cmFailovers = 0;      //!< CM primary successions
    std::uint64_t quorumRefusals = 0;   //!< CM epoch advances refused
    std::uint64_t staleLeaseGrants = 0; //!< CM-epoch-fenced lease grants
    /** Live-backup images that disagree with ground truth at end of
     *  run (computed when replication and recovery are both on; the
     *  chaos fuzzer's primary durability predicate). */
    std::uint64_t divergentRecords = 0;

    /** Grey-failure / overload robustness outcome (src/net/slo_tracker,
     *  src/protocol/admission.hh, FaultConfig::greyEvents; all zero
     *  unless the SLO tracker, admission control, or a grey fault
     *  window is configured). */
    std::uint64_t greyDelays = 0;        //!< copies slowed by grey windows
    std::uint64_t stragglerReserves = 0; //!< core duty-cycle slices stolen
    std::uint64_t sloSamples = 0;        //!< RTTs the SLO tracker observed
    std::uint64_t sloSuspectTransitions = 0;  //!< entries into Suspect
    std::uint64_t sloDegradedTransitions = 0; //!< entries into Degraded
    std::uint64_t hedgedSends = 0;       //!< hedge copies actually sent
    std::uint64_t hedgeWins = 0;         //!< round trips the hedge won
    std::uint64_t admittedTxns = 0;      //!< admissions granted
    std::uint64_t shedTxns = 0;          //!< admissions shed (overload)
    std::uint64_t retryBudgetDeferrals = 0; //!< budget-paced squash retries
    std::uint64_t quarantines = 0;       //!< grey nodes drained by the CM

    /** Elastic-membership outcome (src/recovery/membership.hh; all
     *  zero unless ClusterConfig::membership schedules a join or a
     *  planned drain). */
    bool membershipEnabled = false;        //!< membership subsystem was on
    bool membershipComplete = false;       //!< every join/drain finished
    std::uint64_t recordsMigrated = 0;     //!< live ownership handoffs
    std::uint64_t migrationBatches = 0;    //!< throttled handoff batches
    std::uint64_t drainDurationEvents = 0; //!< drain-step events, start..leave
    std::uint64_t joinsCompleted = 0;      //!< joins fully rebalanced
    std::uint64_t stalePlacementRetries = 0; //!< squash-retries vs moved records

    /** Correctness-audit outcome (all zero when auditing is off). */
    bool audited = false;
    std::uint64_t auditedCommits = 0;  //!< committed txns audited
    std::uint64_t auditedAborts = 0;   //!< aborted attempts audited
    std::uint64_t auditGraphEdges = 0; //!< dependency edges checked
    std::uint64_t auditChecks = 0;     //!< structural checks performed

    /** Sharded-execution metadata (purely observational: these
     *  describe *how* the run executed, never *what* it computed, and
     *  are excluded from determinism hashes). */
    std::uint32_t shardsUsed = 1;        //!< kernel lanes of the run
    bool shardsThreaded = false;         //!< worker threads were used
    bool laneClosed = false;             //!< threaded, in one window
    std::uint64_t shardWindows = 0;      //!< window barriers crossed
    std::uint64_t crossShardEvents = 0;  //!< events that changed lanes
    /** The threaded executor hit the pessimistic lock-mode fallback and
     *  the run was transparently redone on the deterministic sharded
     *  executor (the reported results are from that re-run). */
    bool serialRerun = false;
};

/** Run one configuration to completion. */
RunResult runOne(const RunSpec &spec);

/** Engine factory (exposed for tests and examples). */
std::unique_ptr<protocol::TxnEngine> makeEngine(
    protocol::EngineKind kind, protocol::System &sys,
    std::uint32_t payload_bytes);

/** Record footprint (bytes) for an engine kind at a payload size. */
std::uint32_t engineRecordBytes(protocol::EngineKind kind,
                                std::uint32_t payload_bytes);

} // namespace hades::core

#endif // HADES_CORE_RUNNER_HH_
