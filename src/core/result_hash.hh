/**
 * @file
 * Determinism-hash helper shared by the differential test suites and
 * the chaos fuzzer's threaded-messaging differential.
 *
 * hashResult() folds every *semantic* RunResult field into one FNV-1a
 * digest: two runs are "the same run" iff their digests match. The
 * sharded-execution metadata block (shardsUsed, shardsThreaded,
 * laneClosed, shardWindows, crossShardEvents, serialRerun) is
 * deliberately excluded -- those fields describe how the run
 * executed, not what it computed, and the whole point of a
 * differential harness is that runs with different shard counts hash
 * equal.
 */

#ifndef HADES_CORE_RESULT_HASH_HH_
#define HADES_CORE_RESULT_HASH_HH_

#include <bit>
#include <cstdint>
#include <string>

#include "core/runner.hh"

namespace hades::core
{

/** FNV-1a over every observable RunResult field. Doubles are hashed by
 *  bit pattern: "close" is not "equal" for a determinism contract. */
class ResultHasher
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        u64(s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t
hashResult(const RunResult &r)
{
    ResultHasher h;
    h.str(r.label);
    h.u64(r.stats.committed);
    h.u64(r.stats.attempts);
    h.u64(r.stats.lockModeFallbacks);
    for (auto s : r.stats.squashes)
        h.u64(s);
    for (auto t : r.stats.overheadTicks)
        h.u64(static_cast<std::uint64_t>(t));
    h.u64(static_cast<std::uint64_t>(r.stats.totalBusyTicks));
    h.u64(r.stats.bfConflictChecks);
    h.u64(r.stats.bfFalsePositives);
    h.u64(r.stats.maxLinesRead);
    h.u64(r.stats.maxLinesWritten);
    h.u64(r.stats.netMessages);
    h.u64(r.stats.netBytes);
    h.u64(r.stats.timeoutResends);
    h.u64(r.stats.reliableResends);
    h.u64(r.stats.retryBudgetDeferrals);
    h.u64(static_cast<std::uint64_t>(r.simTime));
    h.d(r.throughputTps);
    h.d(r.meanLatencyUs);
    h.d(r.p95LatencyUs);
    h.d(r.p50LatencyUs);
    h.d(r.execUs);
    h.d(r.validationUs);
    h.d(r.commitUs);
    for (double s : r.overheadShare)
        h.d(s);
    h.d(r.otherShare);
    h.d(r.squashRate);
    h.d(r.evictionSquashRate);
    h.d(r.bfFalsePositiveRate);
    h.u64(r.replicatedCommits);
    h.u64(r.replicationAborts);
    h.u64(r.lostReplicaMessages);
    h.u64(r.faultDrops);
    h.u64(r.faultDuplicates);
    h.u64(r.faultDelays);
    h.u64(r.faultNicStalls);
    h.u64(r.faultCrashDrops);
    h.u64(r.partitionDrops);
    h.u64(r.partitionHeals);
    h.u64(r.corruptDrops);
    h.u64(r.netRetransmits);
    h.u64(r.timeoutResends);
    h.u64(r.reliableResends);
    h.u64(r.timeoutSquashes);
    h.u64(r.recoveryEnabled ? 1 : 0);
    h.u64(r.leaseProbes);
    h.u64(r.viewChanges);
    h.u64(r.promotedRecords);
    h.u64(r.inDoubtCommitted);
    h.u64(r.inDoubtAborted);
    h.u64(r.replayedWrites);
    h.u64(r.resyncedImages);
    h.u64(r.fencedStaleMessages);
    h.u64(r.cmFailovers);
    h.u64(r.quorumRefusals);
    h.u64(r.staleLeaseGrants);
    h.u64(r.divergentRecords);
    h.u64(r.greyDelays);
    h.u64(r.stragglerReserves);
    h.u64(r.sloSamples);
    h.u64(r.sloSuspectTransitions);
    h.u64(r.sloDegradedTransitions);
    h.u64(r.hedgedSends);
    h.u64(r.hedgeWins);
    h.u64(r.admittedTxns);
    h.u64(r.shedTxns);
    h.u64(r.retryBudgetDeferrals);
    h.u64(r.quarantines);
    h.u64(r.membershipEnabled ? 1 : 0);
    h.u64(r.membershipComplete ? 1 : 0);
    h.u64(r.recordsMigrated);
    h.u64(r.migrationBatches);
    h.u64(r.drainDurationEvents);
    h.u64(r.joinsCompleted);
    h.u64(r.stalePlacementRetries);
    h.u64(r.audited ? 1 : 0);
    h.u64(r.auditedCommits);
    h.u64(r.auditedAborts);
    h.u64(r.auditGraphEdges);
    h.u64(r.auditChecks);
    return h.value();
}

} // namespace hades::core

#endif // HADES_CORE_RESULT_HASH_HH_
