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

// clang-format off
/**
 * The scalar counters of RunResult, one entry each:
 *
 *   X(type, member, JSON key, layer, Hashed | Observed)
 *
 * The list generates the RunResult members (in this order) and,
 * through forEachResultCounter(), their hashResult() digest (Observed
 * entries are left out), their runResultJson() keys and the CLI counter
 * lines. A new counter is one entry here plus the line in runOne that
 * fills it.
 */
#define HADES_RUN_RESULT_COUNTERS(X)                                          \
    /* Section V-A replication outcome (when enabled). */                     \
    X(u64, replicatedCommits, "replicated_commits", Replication, Hashed)      \
    X(u64, replicationAborts, "replication_aborts", Replication, Hashed)      \
    X(u64, lostReplicaMessages, "lost_replica_messages", Replication, Hashed) \
    /* Fault injection: copies dropped (all causes, then crash windows,       \
     * partitioned links), duplicated, delayed; injected NIC stalls;          \
     * partition windows healed in-run; NIC CRC-rejected deliveries. All      \
     * zero when faults are off. */                                           \
    X(u64, faultDrops, "fault_drops", Net, Hashed)                            \
    X(u64, faultDuplicates, "fault_duplicates", Net, Hashed)                  \
    X(u64, faultDelays, "fault_delays", Net, Hashed)                          \
    X(u64, faultNicStalls, "fault_nic_stalls", Net, Hashed)                   \
    X(u64, faultCrashDrops, "fault_crash_drops", Net, Hashed)                 \
    X(u64, partitionDrops, "partition_drops", Net, Hashed)                    \
    X(u64, partitionHeals, "partition_heals", Net, Hashed)                    \
    X(u64, corruptDrops, "corrupt_drops", Net, Hashed)                        \
    /* Loss recovery: NIC-level RC retransmissions (the protocol-level       \
     * resends are EngineStats counters). */                                  \
    X(u64, netRetransmits, "net_retransmits", Net, Hashed)                    \
    /* Crash recovery (src/recovery/; all zero unless                         \
     * ClusterConfig::recovery.enabled and a node permanently died).          \
     * divergentRecords counts live-backup images that disagree with          \
     * ground truth at end of run, computed when replication and recovery     \
     * are both on: the chaos fuzzer's durability predicate. */               \
    X(bool, recoveryEnabled, "recovery_enabled", Recovery, Hashed)            \
    X(u64, leaseProbes, "lease_probes", Recovery, Hashed)                     \
    X(u64, viewChanges, "view_changes", Recovery, Hashed)                     \
    X(u64, promotedRecords, "promoted_records", Recovery, Hashed)             \
    X(u64, inDoubtCommitted, "indoubt_committed", Recovery, Hashed)           \
    X(u64, inDoubtAborted, "indoubt_aborted", Recovery, Hashed)               \
    X(u64, replayedWrites, "replayed_writes", Recovery, Hashed)               \
    X(u64, resyncedImages, "resynced_images", Recovery, Hashed)               \
    X(u64, fencedStaleMessages, "fenced_stale_messages", Recovery, Hashed)    \
    X(u64, cmFailovers, "cm_failovers", Recovery, Hashed)                     \
    X(u64, quorumRefusals, "quorum_refusals", Recovery, Hashed)               \
    X(u64, staleLeaseGrants, "stale_lease_grants", Recovery, Hashed)          \
    X(u64, divergentRecords, "divergent_records", Recovery, Hashed)           \
    /* Grey-failure and overload robustness (src/net/slo_tracker.hh,          \
     * src/protocol/admission.hh, FaultConfig::greyEvents; all zero unless    \
     * one is configured). */                                                 \
    X(u64, greyDelays, "grey_delays", Grey, Hashed)                           \
    X(u64, stragglerReserves, "straggler_reserves", Grey, Hashed)             \
    X(u64, sloSamples, "slo_samples", Grey, Hashed)                           \
    X(u64, sloSuspectTransitions, "slo_suspect_transitions", Grey, Hashed)    \
    X(u64, sloDegradedTransitions, "slo_degraded_transitions", Grey, Hashed)  \
    X(u64, hedgedSends, "hedged_sends", Grey, Hashed)                         \
    X(u64, hedgeWins, "hedge_wins", Grey, Hashed)                             \
    X(u64, admittedTxns, "admitted_txns", Grey, Hashed)                       \
    X(u64, shedTxns, "shed_txns", Grey, Hashed)                               \
    /* A copy of the EngineStats counter that perfbench reads. */             \
    X(u64, retryBudgetDeferrals, "retry_budget_deferrals", Grey, Hashed)      \
    X(u64, quarantines, "quarantines", Grey, Hashed)                          \
    /* Elastic membership (src/recovery/membership.hh; all zero unless a      \
     * join or planned drain is scheduled). */                                \
    X(bool, membershipEnabled, "membership_enabled", Membership, Hashed)      \
    X(bool, membershipComplete, "membership_complete", Membership, Hashed)    \
    X(u64, recordsMigrated, "records_migrated", Membership, Hashed)           \
    X(u64, migrationBatches, "migration_batches", Membership, Hashed)         \
    X(u64, drainDurationEvents, "drain_duration_events", Membership, Hashed)  \
    X(u64, joinsCompleted, "joins_completed", Membership, Hashed)             \
    /* Correctness audit (all zero when auditing is off). */                  \
    X(bool, audited, "audited", Audit, Hashed)                                \
    X(u64, auditedCommits, "audited_commits", Audit, Hashed)                  \
    X(u64, auditedAborts, "audited_aborts", Audit, Hashed)                    \
    X(u64, auditGraphEdges, "audit_graph_edges", Audit, Hashed)               \
    X(u64, auditChecks, "audit_checks", Audit, Hashed)                        \
    /* How the run executed, never what it computed: kernel lanes, worker     \
     * threads used, threaded in one window, window barriers crossed,         \
     * events that changed lanes, whether the threaded executor hit the       \
     * lock-mode fallback so the run was redone on the deterministic          \
     * sharded executor (the results are that re-run's), and the events       \
     * the kernel dispatched. */                                              \
    X(u32, shardsUsed, "shards_used", Executor, Observed)                     \
    X(bool, shardsThreaded, "shards_threaded", Executor, Observed)            \
    X(bool, laneClosed, "lane_closed", Executor, Observed)                    \
    X(u64, shardWindows, "shard_windows", Executor, Observed)                 \
    X(u64, crossShardEvents, "cross_shard_events", Executor, Observed)        \
    X(bool, serialRerun, "serial_rerun", Executor, Observed)                  \
    X(u64, kernelEvents, "kernel_events", Executor, Observed)
// clang-format on

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

    HADES_RUN_RESULT_COUNTERS(HADES_COUNTER_MEMBER)
};

/** Calls f(CounterInfo, counter) for every scalar counter of @p obj (a
 *  RunResult, const or not; its EngineStats excluded) in table order. */
template <class Result, class F>
void
forEachResultCounter(Result &obj, F &&f)
{
    HADES_RUN_RESULT_COUNTERS(HADES_VISIT_COUNTER)
}

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
