/**
 * @file
 * Per-engine statistics: throughput, latency phases, squash reasons, the
 * Table I software-overhead categories (Figure 3), and Bloom filter
 * false-positive accounting (Section VIII-C).
 */

#ifndef HADES_TXN_TXN_STATS_HH_
#define HADES_TXN_TXN_STATS_HH_

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"

namespace hades::txn
{

/** The software overhead categories of Table I / Figure 3. */
enum class Overhead : std::uint8_t
{
    ManageSets,       //!< manage the Read and Write sets
    UpdateVersion,    //!< bump record version before a write
    ReadAtomicity,    //!< per-line version checks + non-zero-copy reads
    RdBeforeWr,       //!< read the whole record before writing it
    ConflictDetection,//!< re-read versions during validation
    NumCategories,
};

/** Name for printing Figure 3 rows. */
inline const char *
overheadName(Overhead o)
{
    switch (o) {
      case Overhead::ManageSets:
        return "ManageRdWrSets";
      case Overhead::UpdateVersion:
        return "UpdateVersion";
      case Overhead::ReadAtomicity:
        return "ReadAtomicity";
      case Overhead::RdBeforeWr:
        return "RdBeforeWr";
      case Overhead::ConflictDetection:
        return "ConflictDetection";
      default:
        return "?";
    }
}

/** Why a transaction attempt was squashed. */
enum class SquashReason : std::uint8_t
{
    EagerLocalConflict, //!< L-L conflict detected at access time (HADES)
    LazyConflict,       //!< squashed by a committing transaction
    LockFailure,        //!< failed to partially lock a directory
    ValidationFailure,  //!< version mismatch in software validation
    LockBusy,           //!< SW lock CAS lost (Baseline/HADES-H)
    LlcEviction,        //!< speculative line evicted from the LLC
    ReplicaTimeout,     //!< a replica update was lost / not acked
    CommitTimeout,      //!< commit-phase Acks never arrived (faults)
    NodeFailure,        //!< a participant crashed permanently (recovery)
    StalePlacement,     //!< record migrated mid-attempt (membership)
    Shed,               //!< refused by admission control (overload)
    NumReasons,
};

inline const char *
squashReasonName(SquashReason r)
{
    switch (r) {
      case SquashReason::EagerLocalConflict:
        return "EagerLocalConflict";
      case SquashReason::LazyConflict:
        return "LazyConflict";
      case SquashReason::LockFailure:
        return "LockFailure";
      case SquashReason::ValidationFailure:
        return "ValidationFailure";
      case SquashReason::LockBusy:
        return "LockBusy";
      case SquashReason::LlcEviction:
        return "LlcEviction";
      case SquashReason::ReplicaTimeout:
        return "ReplicaTimeout";
      case SquashReason::CommitTimeout:
        return "CommitTimeout";
      case SquashReason::NodeFailure:
        return "NodeFailure";
      case SquashReason::StalePlacement:
        return "StalePlacement";
      case SquashReason::Shed:
        return "Shed";
      default:
        return "?";
    }
}

/** Where a counter belongs; the CLI prints one line per layer. */
enum class CounterLayer : std::uint8_t
{
    Engine,
    Net,
    Replication,
    Recovery,
    Grey,
    Membership,
    Audit,
    Executor,
    NumLayers,
};

inline const char *
counterLayerName(CounterLayer l)
{
    constexpr const char *kNames[] = {
        "engine", "net",        "replication", "recovery",
        "grey",   "membership", "audit",       "executor",
    };
    return kNames[static_cast<std::size_t>(l)];
}

/** Hashed counters are part of what a run computed and are folded into
 *  core::hashResult; Observed ones describe only how it executed. */
enum class Hashing : std::uint8_t
{
    Hashed,
    Observed,
};

/** How EngineStats::merge combines one counter across engines. */
enum class Merge : std::uint8_t
{
    Sum,
    Max,
};

/** One counter-table entry, as the forEach*Counter visitors pass it. */
struct CounterInfo
{
    const char *key;     //!< JSON key, also the CLI label
    CounterLayer layer;  //!< CLI line the counter prints on
    Hashing hashing;
};

/** A counter-table entry as a zero-initialized struct member. */
#define HADES_COUNTER_MEMBER(T, name, ...) T name{};

/** A counter-table entry of `obj` handed to the visitor `f`. */
#define HADES_VISIT_COUNTER(T, name, key, layer, hashing, ...)               \
    f(::hades::txn::CounterInfo{key, ::hades::txn::CounterLayer::layer,      \
                                ::hades::txn::Hashing::hashing},             \
      obj.name);

// clang-format off
/**
 * The scalar counters of EngineStats, one entry each:
 *
 *   X(type, member, JSON key, layer, Hashed | Observed, Sum | Max)
 *
 * Each list generates the struct members (in this order), merge(), and
 * through forEachStatsCounter() the hashResult() digest, the JSON
 * "stats" object and the CLI counter lines. The list is split where
 * the squash, latency and overhead aggregates sit in all of those.
 */
#define HADES_ENGINE_STATS_HEAD(X)                                            \
    X(u64, committed, "committed", Engine, Hashed, Sum)                       \
    X(u64, attempts, "attempts", Engine, Hashed, Sum)                         \
    X(u64, lockModeFallbacks, "lock_mode_fallbacks", Engine, Hashed, Sum)

#define HADES_ENGINE_STATS_TAIL(X)                                            \
    /* Core busy time attributable to transactions (for Other Time). */       \
    X(Tick, totalBusyTicks, "total_busy_ticks", Engine, Hashed, Sum)          \
    /* Bloom filter conflict checks and measured false positives. */          \
    X(u64, bfConflictChecks, "bf_conflict_checks", Engine, Hashed, Sum)       \
    X(u64, bfFalsePositives, "bf_false_positives", Engine, Hashed, Sum)       \
    /* Largest per-transaction cache-line footprints observed (Section        \
     * VIII-C quotes at most 76 read / 40 written). */                        \
    X(u64, maxLinesRead, "max_lines_read", Engine, Hashed, Max)               \
    X(u64, maxLinesWritten, "max_lines_written", Engine, Hashed, Max)         \
    /* Network message counts snapshot (filled by the runner). */             \
    X(u64, netMessages, "net_messages", Net, Hashed, Sum)                     \
    X(u64, netBytes, "net_bytes", Net, Hashed, Sum)                           \
    /* Commit-phase resends after an Ack timeout, and reliable one-way        \
     * resends (Validation/Squash/replica traffic) after a missing            \
     * delivery confirmation; zero in fault-free runs. */                     \
    X(u64, timeoutResends, "timeout_resends", Net, Hashed, Sum)               \
    X(u64, reliableResends, "reliable_resends", Net, Hashed, Sum)             \
    /* Squash retries paced because the node's admission-control retry        \
     * budget was exhausted at the retry instant. */                          \
    X(u64, retryBudgetDeferrals, "retry_budget_deferrals", Grey, Hashed, Sum)
// clang-format on

/** Aggregate statistics for one engine over one simulation. */
struct EngineStats
{
    HADES_ENGINE_STATS_HEAD(HADES_COUNTER_MEMBER)

    std::array<std::uint64_t,
               static_cast<std::size_t>(SquashReason::NumReasons)>
        squashes{};

    /** End-to-end latency of committed transactions (Ticks), measured
     *  from first-attempt start to commit completion. */
    stats::Histogram latency;

    /** Phase time of committed transactions (Ticks). */
    stats::Accumulator execPhase;
    stats::Accumulator validationPhase;
    stats::Accumulator commitPhase;

    /** Table I overhead categories (Baseline / HADES-H local path). */
    std::array<Tick,
               static_cast<std::size_t>(Overhead::NumCategories)>
        overheadTicks{};

    HADES_ENGINE_STATS_TAIL(HADES_COUNTER_MEMBER)

    std::uint64_t
    totalSquashes() const
    {
        std::uint64_t n = 0;
        for (auto s : squashes)
            n += s;
        return n;
    }

    void
    addOverhead(Overhead o, Tick t)
    {
        overheadTicks[static_cast<std::size_t>(o)] += t;
    }

    Tick
    overhead(Overhead o) const
    {
        return overheadTicks[static_cast<std::size_t>(o)];
    }

    void
    addSquash(SquashReason r)
    {
        squashes[static_cast<std::size_t>(r)] += 1;
    }

    void
    merge(const EngineStats &o)
    {
#define HADES_MERGE_COUNTER(T, name, key, layer, hashing, how)               \
    name = Merge::how == Merge::Max ? std::max(name, o.name) : name + o.name;
        HADES_ENGINE_STATS_HEAD(HADES_MERGE_COUNTER)
        HADES_ENGINE_STATS_TAIL(HADES_MERGE_COUNTER)
#undef HADES_MERGE_COUNTER
        for (std::size_t i = 0; i < squashes.size(); ++i)
            squashes[i] += o.squashes[i];
        latency.merge(o.latency);
        execPhase.merge(o.execPhase);
        validationPhase.merge(o.validationPhase);
        commitPhase.merge(o.commitPhase);
        for (std::size_t i = 0; i < overheadTicks.size(); ++i)
            overheadTicks[i] += o.overheadTicks[i];
    }
};

/**
 * Calls f(CounterInfo, counter) for every scalar counter of @p obj (an
 * EngineStats, const or not) in table order, and between() at the
 * place of the squash/latency/overhead aggregates.
 */
template <class Stats, class F, class Between>
void
forEachStatsCounter(Stats &obj, F &&f, Between &&between)
{
    HADES_ENGINE_STATS_HEAD(HADES_VISIT_COUNTER)
    between();
    HADES_ENGINE_STATS_TAIL(HADES_VISIT_COUNTER)
}

template <class Stats, class F>
void
forEachStatsCounter(Stats &obj, F &&f)
{
    forEachStatsCounter(obj, f, [] {});
}

} // namespace hades::txn

#endif // HADES_TXN_TXN_STATS_HH_
