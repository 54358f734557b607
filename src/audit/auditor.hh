/**
 * @file
 * The correctness auditor: a purely observational recorder the
 * protocol engines report into while a simulation runs.
 *
 * Layer 1 (history): every transaction attempt opens an observation,
 * stamps each data read/applied write with its ground-truth version,
 * and closes with commit or abort; finalize() runs the
 * serializability + read-atomicity audit of history_graph.hh over the
 * closed history.
 *
 * Layer 2 (structural invariants): hooks the engines call at the
 * hardware touch points --
 *  - Bloom filter probes must never false-negative against the exact
 *    footprint oracle (AttemptControl's shadow sets);
 *  - Find-LLC-Tags must return exactly the lines the transaction
 *    wrote, every one covered by the split WrBF1/WrBF2 signature;
 *  - lock-owner epochs must be monotone per hardware context;
 *  - WrTX tags, Locking Buffers, NIC state, and record locks must
 *    drain to zero after every transaction and at the end of a run.
 *
 * The auditor draws no random numbers and schedules no events, so
 * enabling it cannot perturb the simulated execution: an audited run
 * is bit-identical (in simulated time and protocol outcomes) to the
 * same run without the auditor.
 */

#ifndef HADES_AUDIT_AUDITOR_HH_
#define HADES_AUDIT_AUDITOR_HH_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/observation.hh"
#include "bloom/bloom_filter.hh"
#include "bloom/split_write_bloom.hh"
#include "common/types.hh"

namespace hades::audit
{

/** Default enablement: on in debug builds and in builds configured
 *  with -DHADES_AUDIT=ON (HADES_AUDIT_FORCE_ON); opt-in elsewhere. */
#if defined(HADES_AUDIT_FORCE_ON)
inline constexpr bool kDefaultEnabled = true;
#elif defined(NDEBUG)
inline constexpr bool kDefaultEnabled = false;
#else
inline constexpr bool kDefaultEnabled = true;
#endif

/** Records one run's history + invariant checks; see file comment. */
class Auditor
{
  public:
    // ---- Layer 1: transaction history ----------------------------------

    /** Open an observation for one attempt; returns its audit id.
     *  Engine ids repeat across attempts (Baseline reuses the bare
     *  context id fault-free), so the auditor allocates its own. */
    std::uint64_t begin(std::uint64_t engine_id);

    /** Record a data read of @p record at ground-truth @p version. */
    void noteRead(std::uint64_t obs, std::uint64_t record,
                  std::uint64_t version);

    /** Record an applied write that installed @p version. Writes may
     *  arrive after noteCommit (asynchronous remote Validation). */
    void noteWrite(std::uint64_t obs, std::uint64_t record,
                   std::uint64_t version);

    void noteCommit(std::uint64_t obs);
    void noteAbort(std::uint64_t obs);

    // ---- Layer 2: structural invariants --------------------------------

    /** One BF probe: @p may_contain is the filter's answer, @p truth
     *  the exact-set oracle's. truth && !may_contain is impossible in
     *  a correct Bloom filter. */
    void noteFilterProbe(bool may_contain, bool truth,
                         const char *site);

    /** Every line of @p exact must hit in @p bf (no false negative). */
    void checkFilterCovers(const bloom::AddressFilter &bf,
                           const std::unordered_set<Addr> &exact,
                           const char *site);
    /** Same check for the NIC's ordered shadow sets. */
    void checkFilterCovers(const bloom::AddressFilter &bf,
                           const std::set<Addr> &exact,
                           const char *site);

    /**
     * Find-LLC-Tags result check: @p found (the WrTX-tag enumeration)
     * must equal @p exact (the lines the attempt wrote locally), and
     * when @p split is given every found line must be covered by the
     * split signature with its LLC set among the WrBF2 candidates
     * (Figure 8's enable signal would otherwise skip the set).
     */
    void noteFindTags(std::uint64_t engine_id,
                      const std::vector<Addr> &found,
                      const std::unordered_set<Addr> &exact,
                      const bloom::SplitWriteBloomFilter *split);

    /** A lock/Locking Buffer acquisition by packed owner id; epochs
     *  (bits 48..61) must be monotone per hardware context. */
    void noteLockAcquire(std::uint64_t owner);

    /** End-of-txn / end-of-run drain check: @p leftover entries of
     *  @p structure at @p node must be zero. */
    void noteDrained(const char *structure, NodeId node,
                     std::uint64_t leftover);

    // ---- Reporting ------------------------------------------------------

    /** Run the history audit and return the combined report. Call
     *  once, after the kernel has drained. */
    AuditReport finalize();

  private:
    void violation(ViolationKind kind, std::string detail);
    TxnObservation *find(std::uint64_t obs);

    std::vector<TxnObservation> observations_;
    /** Packed context id -> last lock-owner epoch seen. */
    std::unordered_map<std::uint64_t, std::uint64_t> lockEpochs_;
    AuditReport report_;
    bool finalized_ = false;
};

} // namespace hades::audit

#endif // HADES_AUDIT_AUDITOR_HH_
