/**
 * @file
 * Cluster configuration: the architectural parameters of Table III of the
 * paper plus the software cost model used by the Baseline (SW-Impl)
 * protocol engine.
 *
 * Every knob the evaluation sweeps (node/core counts, network latency,
 * locality fraction, Bloom filter geometry) lives here so that each bench
 * binary is a pure function of a ClusterConfig.
 */

#ifndef HADES_COMMON_CONFIG_HH_
#define HADES_COMMON_CONFIG_HH_

#include <array>
#include <cstdint>
#include <vector>

#include "common/time.hh"
#include "common/types.hh"

namespace hades
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t ways = 8;
    std::uint32_t accessCycles = 2; //!< round-trip latency in core cycles
};

/** Bloom filter geometry (bits and number of hash functions). */
struct BloomParams
{
    std::uint32_t bits = 1024;
    /** Two hash functions reproduce the Table IV false-positive rates
     *  of the paper's 1-Kbit filters. */
    std::uint32_t numHashes = 2;
};

/**
 * Geometry of the split write Bloom filter of Section V-C / Figure 8:
 * WrBF1 is CRC-hashed, WrBF2 is indexed with the LLC set-index bits
 * modulo its size so set bits identify groups of LLC sets.
 */
struct SplitWriteBloomParams
{
    std::uint32_t bf1Bits = 512;
    /** One CRC hash in WrBF1: the LLC-index section WrBF2 acts as the
     *  second hash function (matches Table IV row 2). */
    std::uint32_t bf1Hashes = 1;
    std::uint32_t bf2Bits = 4096;
};

/**
 * Cycle costs of the software operations that Table I identifies as the
 * overheads of SW-Impl. The constants are per-record or per-line charges
 * the Baseline engine adds on top of the raw memory/network accesses;
 * HADES eliminates them (and HADES-H eliminates the remote-path subset).
 */
struct SoftwareCostModel
{
    // The constants are calibrated so that the Table I categories add
    // up to the 59-71% execution-time share Figure 3 reports for
    // SW-Impl on a FaRM-class system. Each per-record entry is on the
    // order of 0.3-1 us of protocol code at 2 GHz (allocation, hashing,
    // marshalling, bounce-buffer copies, completion polling), which is
    // what published FaRM-family profiles show per operation.

    /** Insert one entry into the read or write set (allocation,
     *  bookkeeping, hashing into the per-transaction tables). */
    std::uint32_t setInsertCycles = 2400;
    /** Look up / iterate one set entry during validation or commit. */
    std::uint32_t setWalkCycles = 400;
    /** memcpy throughput for buffering data, bytes per cycle. */
    std::uint32_t copyBytesPerCycle = 2;
    /** Bump a record's version before a write. */
    std::uint32_t versionUpdateCycles = 800;
    /** Per-line version compare when checking read atomicity. */
    std::uint32_t atomicityCheckPerLineCycles = 700;
    /** Compare a re-read version against the read-set entry. */
    std::uint32_t versionCompareCycles = 1400;
    /** Local lock / unlock via CAS. */
    std::uint32_t localCasCycles = 700;
    /** Software issue cost of posting one RDMA verb to the NIC. */
    std::uint32_t rdmaPostCycles = 600;
    /** Poll for an RDMA completion (per poll iteration). */
    std::uint32_t rdmaPollCycles = 400;
    /** Exec-phase retries when a record is found locked, before the
     *  transaction aborts (FaRM re-reads briefly instead of aborting). */
    std::uint32_t lockedReadRetries = 4;
};

/**
 * Robustness tuning: every retry / resend / lease timing constant of
 * the fault-recovery machinery (PRs 1 and 4) in one documented place,
 * so chaos tests and fuzzer genomes can vary them coherently instead
 * of poking scattered magic numbers. Defaults are the values the
 * subsystems shipped with; changing none of them keeps every run
 * bit-identical.
 */
struct RobustnessTuning
{
    // --- optimistic-retry policy (all engines) -------------------------------
    /** FaRM-style livelock escape: after this many squashes of the same
     *  transaction, fall back to lock-all pessimistic execution. */
    std::uint32_t maxSquashesBeforeLockMode = 48;
    /** Exponential backoff base applied between retries (cycles). */
    std::uint32_t retryBackoffBaseCycles = 200;

    // --- message-loss recovery (only active when faults.enabled) -------------
    /** Initial per-verb retransmission/resend timeout. Doubles per
     *  attempt (capped at retryTimeoutCap) with jitter on the
     *  protocol-level resends. */
    Tick retryTimeoutBase = us(8);
    Tick retryTimeoutCap = us(128);
    /** Commit-phase Intend-to-commit resend budget: after this many
     *  timeout-triggered resend rounds without a full Ack set the
     *  committer squashes itself (CommitTimeout) and retries. */
    std::uint32_t maxCommitResends = 10;

    // --- lease-based failure detection (recovery.enabled) --------------------
    /** Lease renewal period (manager -> holder probe cadence). */
    Tick leaseInterval = us(20);
    /** Expiry horizon: a node whose last renewal is older than this is
     *  declared dead and a view change begins. Must comfortably exceed
     *  leaseInterval plus one network round-trip. */
    Tick leaseTimeout = us(50);
};

/**
 * Fault-injection plan knobs (src/fault/). All perturbations are drawn
 * from a dedicated seeded RNG, so a faulty run is exactly as
 * bit-reproducible as a fault-free one. With enabled == false the
 * network takes its original code paths and no RNG is consumed, so
 * fault-free runs are bit-identical to builds without the subsystem.
 */
struct FaultConfig
{
    /** Must mirror net::MsgType::NumTypes (static_assert'd in
     *  src/fault/fault_plan.cc). */
    static constexpr std::size_t kNumVerbs = 10;

    bool enabled = false;
    /** Mixed with ClusterConfig::seed to seed the fault RNG. */
    std::uint64_t seed = 0x0ddfa117;

    /** Per-verb message-loss probability, indexed by net::MsgType. */
    std::array<double, kNumVerbs> dropProb{};
    /** Per-verb duplicate-delivery probability. */
    std::array<double, kNumVerbs> dupProb{};
    /** Per-verb reorder-delay probability. */
    std::array<double, kNumVerbs> delayProb{};
    /** Per-verb payload-corruption probability: the copy is delivered
     *  but fails the destination NIC's CRC check and is discarded, so
     *  at the protocol layer a corrupted Intend-to-commit or Validation
     *  is indistinguishable from a drop and the RC-retransmission /
     *  reliablePost machinery recovers it. */
    std::array<double, kNumVerbs> corruptProb{};
    /** Deterministically drop the first N sends of a verb (phase-
     *  targeted chaos tests; probabilistic knobs are skipped for a
     *  message dropped this way). */
    std::array<std::uint32_t, kNumVerbs> dropFirst{};

    /** Upper bound of an injected reorder delay. */
    Tick maxDelay = us(6);

    /** Probability that a send additionally stalls the source NIC
     *  pipeline (backpressure burst) for nicStallTicks. */
    double nicStallProb = 0;
    Tick nicStallTicks = us(1);

    /**
     * Whole-node outage window scheduled on the DES kernel. A *pause*
     * stalls the node's cores and NIC TX port for the window and defers
     * message arrivals to the window end. A *crash* additionally drops
     * every message into or out of the node during the window
     * (fail-stop with message amnesia; the node restarts warm at
     * `until` -- see DESIGN.md). A *permanent crash* (`forever`) never
     * restarts: the window extends to the end of the run, the node's
     * cores and NIC are frozen, and -- when RecoveryConfig::enabled --
     * lease expiry at the configuration manager triggers an
     * epoch-numbered view change that fails the node over to its
     * replicas (see DESIGN.md section 9).
     */
    struct NodeEvent
    {
        NodeId node = 0;
        Tick at = 0;
        Tick until = 0;
        bool crash = false;
        /** Permanent fail-stop: `until` is ignored (treated as +inf)
         *  and `crash` semantics are implied. */
        bool forever = false;
    };
    std::vector<NodeEvent> nodeEvents;

    /**
     * Link-level network partition: every message copy sent on a listed
     * directed src->dst edge inside [at, until) is dropped on the wire
     * (asymmetric by default -- the reverse direction keeps working
     * unless `symmetric` adds it). Healing is scheduled, not magic: at
     * `until` the edges simply carry traffic again and the endpoints'
     * retransmission / resend timers recover whatever was lost. A
     * window that never heals (until == kTickMax) models a permanent
     * partition; use with care, since a round trip across it
     * retransmits forever and the run only drains if no coroutine is
     * stuck on such a link when the drivers finish.
     */
    struct PartitionWindow
    {
        /** Directed src->dst edges the window blocks. */
        std::vector<std::pair<NodeId, NodeId>> edges;
        Tick at = 0;
        Tick until = 0;
        /** Also block every reverse edge (full bidirectional cut). */
        bool symmetric = false;

        bool
        blocks(NodeId src, NodeId dst, Tick t) const
        {
            if (t < at || t >= until)
                return false;
            for (const auto &e : edges)
                if ((e.first == src && e.second == dst) ||
                    (symmetric && e.first == dst && e.second == src))
                    return true;
            return false;
        }

        /** Convenience: isolate @p node from every other node in both
         *  directions. */
        static PartitionWindow
        isolate(NodeId node, std::uint32_t num_nodes, Tick at, Tick until)
        {
            PartitionWindow w;
            w.at = at;
            w.until = until;
            w.symmetric = true;
            for (NodeId n = 0; n < num_nodes; ++n)
                if (n != node)
                    w.edges.emplace_back(node, n);
            return w;
        }
    };
    std::vector<PartitionWindow> partitions;

    /** True if any window blocks the directed edge src->dst at @p t. */
    bool
    linkBlocked(NodeId src, NodeId dst, Tick t) const
    {
        for (const auto &w : partitions)
            if (w.blocks(src, dst, t))
                return true;
        return false;
    }

    /** Number of partition windows whose scheduled healing instant has
     *  passed by @p t (computed lazily so healing needs no kernel
     *  event and never extends the simulated run). */
    std::uint64_t
    partitionsHealedBy(Tick t) const
    {
        std::uint64_t n = 0;
        for (const auto &w : partitions)
            n += w.until != kTickMax && w.until <= t;
        return n;
    }

    // Convenience setters: apply one probability to every verb.
    void dropAll(double p) { dropProb.fill(p); }
    void dupAll(double p) { dupProb.fill(p); }
    void delayAll(double p) { delayProb.fill(p); }
    void corruptAll(double p) { corruptProb.fill(p); }

    /**
     * Grey (fail-slow) fault: nothing is lost, everything is *late*.
     * A SlowNic event inflates the one-way wire latency of every copy
     * into or out of `node` by `factorPct` percent; a SlowLink event
     * inflates only the directed src->dst edge (plus the reverse when
     * `symmetric`); a StraggleCore event steals cycles from every core
     * of `node` (duty-cycle reservations), modeling thermal throttling
     * or a noisy neighbor. Grey delays are a pure integer function of
     * (src, dst, send instant) -- no RNG draw -- so enabling one never
     * shifts the probabilistic fault sequence of unrelated messages,
     * and runs stay bit-identical across shard counts.
     */
    struct GreyEvent
    {
        enum class Kind : std::uint8_t
        {
            SlowNic,      //!< all traffic touching `node`
            SlowLink,     //!< directed edge node->dst only
            StraggleCore, //!< cores of `node` run slow
        };
        Kind kind = Kind::SlowNic;
        NodeId node = 0; //!< victim (SlowNic/StraggleCore), link source
        NodeId dst = 0;  //!< link destination (SlowLink only)
        /** Latency multiplier in percent; 100 = no slowdown, 300 = 3x.
         *  Integer so the injected delay is exactly reproducible. */
        std::uint32_t factorPct = 300;
        Tick at = 0;
        Tick until = 0;
        bool symmetric = false; //!< SlowLink: both directions

        bool
        covers(Tick t) const
        {
            return t >= at && t < until && factorPct > 100;
        }
    };
    std::vector<GreyEvent> greyEvents;

    /**
     * Extra one-way delay a message copy sent src->dst at @p t suffers
     * from the active grey events, given the healthy one-way latency
     * @p base. Overlapping events stack additively. Deterministic
     * integer arithmetic only.
     */
    Tick
    greyExtraDelay(NodeId src, NodeId dst, Tick t, Tick base) const
    {
        Tick extra = 0;
        for (const auto &g : greyEvents) {
            if (!g.covers(t))
                continue;
            bool hits = false;
            switch (g.kind) {
            case GreyEvent::Kind::SlowNic:
                hits = g.node == src || g.node == dst;
                break;
            case GreyEvent::Kind::SlowLink:
                hits = (g.node == src && g.dst == dst) ||
                       (g.symmetric && g.node == dst && g.dst == src);
                break;
            case GreyEvent::Kind::StraggleCore:
                break; // core events never touch the wire
            }
            if (hits)
                extra += base * Tick(g.factorPct - 100) / 100;
        }
        return extra;
    }

    bool
    anyNodeEventCovers(NodeId node, Tick t, bool crash_only) const
    {
        for (const auto &ev : nodeEvents)
            if (ev.node == node && t >= ev.at &&
                (ev.forever || t < ev.until) &&
                (!crash_only || ev.crash || ev.forever))
                return true;
        return false;
    }

    /** First permanent-crash instant for `node`, or kTickMax if the
     *  plan never kills it for good. */
    Tick
    crashForeverAt(NodeId node) const
    {
        Tick best = kTickMax;
        for (const auto &ev : nodeEvents)
            if (ev.forever && ev.node == node && ev.at < best)
                best = ev.at;
        return best;
    }

    bool
    anyForever() const
    {
        for (const auto &ev : nodeEvents)
            if (ev.forever)
                return true;
        return false;
    }
};

/**
 * Crash-recovery / reconfiguration knobs (src/recovery/). A replica
 * group of configuration-manager nodes grants per-node leases over the
 * simulated network; a lease that expires (because the holder is
 * permanently crashed and stops renewing) triggers an epoch-numbered
 * view change that promotes replica images, re-homes the placement
 * ring, drains the dead node's protocol footprint and resolves
 * in-doubt transactions. Lease/lease-timing constants live in
 * RobustnessTuning. Disabled by default: fault-free runs construct no
 * recovery state and stay bit-identical to builds without the
 * subsystem.
 */
struct RecoveryConfig
{
    bool enabled = false;
    /** First slot of the configuration-manager replica group: the group
     *  occupies cmGroupSize consecutive node slots starting here
     *  (mod numNodes), and the lowest-slot live member acts as primary
     *  lease grantor. */
    NodeId managerNode = 0;
    /** Fixed-slot CM replica group size (clamped to numNodes). A
     *  crashed primary is detected by its standbys through the same
     *  lease mechanism and deterministically succeeded by the next
     *  live slot; a CM that cannot reach a majority of the live group
     *  members refuses to advance the epoch (no split-brain). */
    std::uint32_t cmGroupSize = 3;
    /** TEST-ONLY seeded bug: skip view-change step 6b (re-replication
     *  of promoted images to ring newcomers), leaving stale backups
     *  behind a crash. Exists so the chaos fuzzer's shrinking can be
     *  demonstrated against a known injected defect; never set it in
     *  real experiments. */
    bool testSkipImageResync = false;
};

/**
 * Elastic-membership knobs (src/recovery/membership.hh): CM-driven
 * *voluntary* reconfiguration -- planned node joins and drains with
 * live record migration -- layered on the same epoch/fencing machinery
 * as crash recovery. Requires recovery.enabled and replication; the
 * runner asserts both. Disabled by default: no MembershipManager is
 * constructed and runs stay bit-identical to builds without the
 * subsystem.
 */
struct MembershipConfig
{
    /** One scheduled join or drain. */
    struct NodeEventAt
    {
        NodeId node = 0;
        Tick at = 0;
    };

    /** Nodes [initialMembers, numNodes) start as spares: they own no
     *  records, hold no replica-ring slots and issue no client load
     *  until a scheduled join admits them. 0 means "all numNodes are
     *  members at t = 0" (the only valid value without joins). */
    std::uint32_t initialMembers = 0;
    /** Scheduled joins: spare `node` is admitted at epoch-fenced
     *  instant `at` and records re-balance toward it in the
     *  background. */
    std::vector<NodeEventAt> joins;
    /** Scheduled planned drains: member `node` stops accepting new
     *  home-node work at `at`, migrates its records and replica slots
     *  to survivors, hands back its hardware footprint and leaves. */
    std::vector<NodeEventAt> drains;

    // --- migration throttle ---------------------------------------------
    /** Records moved per migration batch (one epoch-fenced kernel
     *  event per batch). */
    std::uint32_t migrateBatchRecords = 32;
    /** Pacing interval between consecutive migration batches, so
     *  background migration yields to foreground traffic. */
    Tick migrateBatchInterval = us(4);

    bool
    enabled() const
    {
        return initialMembers > 0 || !joins.empty() || !drains.empty();
    }

    /** Number of record-owning members at t = 0. */
    std::uint32_t
    initialOwners(std::uint32_t num_nodes) const
    {
        if (initialMembers == 0 || initialMembers > num_nodes)
            return num_nodes;
        return initialMembers;
    }
};

/**
 * Latency-SLO detection and hedged retries (src/net/slo_tracker.hh,
 * grey-failure mitigation). When enabled, every completed fault-path
 * round trip feeds a per-(observer, peer) EWMA of the observed RTT --
 * deterministic fixed-point integer arithmetic, no wall clock -- and
 * peers are classified healthy / suspect / degraded against integer
 * multiples of the configured network round trip. Coordinators hedge
 * remote read round trips to a live backup replica once the home is
 * suspect (first response wins; the late copy is suppressed by the
 * same idempotent-replay guard that absorbs duplicate deliveries).
 * Requires faults.enabled (the tracker samples the faulty messaging
 * path); disabled by default so fault-free runs construct no tracker
 * and stay bit-identical.
 */
struct SloConfig
{
    bool enabled = false;
    /** EWMA smoothing: alpha = 1 / 2^ewmaShift (fixed-point). */
    std::uint32_t ewmaShift = 3;
    /** Samples per peer before any classification fires. */
    std::uint32_t warmupSamples = 8;
    /** EWMA >= suspectPct% of the healthy RTT -> Suspect. */
    std::uint32_t suspectPct = 250;
    /** EWMA >= degradedPct% of the healthy RTT -> Degraded. */
    std::uint32_t degradedPct = 500;
    /** Consecutive over-degraded samples before a peer counts as
     *  *sustained* degraded (the quarantine trigger). */
    std::uint32_t sustainedSamples = 12;
    /** Hedge remote reads to a backup replica when the home is at
     *  least Suspect. */
    bool hedgeReads = true;
    /** Hedge copy fires this % of netRoundTrip after the primary. */
    std::uint32_t hedgeDelayPct = 150;
    /** CM-driven quarantine: a sustained-degraded node is drained via
     *  the elastic-membership path (records migrate live, no
     *  epoch-fenced kill). Requires recovery + replication. */
    bool quarantine = false;
};

/**
 * Admission control and retry budgets (src/protocol/admission.hh,
 * overload protection). A per-node token bucket paces new-transaction
 * admission; a queue-depth bound sheds work outright
 * (txn::SquashReason::Shed) with bounded client re-admission backoff;
 * and a per-node retry *budget* -- ratio-capped against admissions,
 * not per-txn -- paces squash retries so a grey failure cannot
 * amplify into a retry storm. All state is integer and refilled
 * lazily from simulated time. Disabled by default: no controller is
 * constructed and runs stay bit-identical.
 */
struct AdmissionConfig
{
    bool enabled = false;
    /** Token-bucket capacity (tokens = admittable txns). */
    std::uint32_t bucketCap = 16;
    /** Tokens added per refillInterval (lazy integer refill). */
    std::uint32_t refillTokens = 8;
    Tick refillInterval = us(2);
    /** In-flight transactions per node above which new admissions are
     *  shed regardless of tokens. 0 disables the depth bound. */
    std::uint32_t maxInFlight = 0;
    /** Retries granted per 100 admitted transactions (the budget
     *  ratio). Exhausted budget *paces* retries instead of failing
     *  them: the retry waits retryPaceBase and re-asks, bounded by
     *  maxRetryDeferrals so forward progress is never lost. */
    std::uint32_t retryBudgetPct = 100;
    std::uint32_t maxRetryDeferrals = 8;
    Tick retryPaceBase = us(2);
    /** Client re-admission backoff after a shed: base << min(tries,
     *  shedBackoffCapShift), deterministic (no jitter draw). */
    Tick shedBackoffBase = us(4);
    std::uint32_t shedBackoffCapShift = 4;
};

/**
 * Sharded parallel-kernel knobs (src/sim/kernel.hh). The shard *count*
 * lives on core::RunSpec (it selects an executor, not a model
 * parameter); this struct tunes how the sharded executors behave.
 * Defaults keep every run bit-identical to the serial oracle.
 */
struct ShardingConfig
{
    /** Force the single-threaded deterministic merge even for specs
     *  the runner would certify for threaded execution (debugging and
     *  the differential tests use this to pin down which executor
     *  diverged). */
    bool forceDeterministic = false;

    /** Conservative synchronization window width: the lookahead
     *  netRoundTrip / 2, the NIC round-trip floor below which no
     *  cross-node event can land (DESIGN.md section 11). */
    Tick
    windowFor(Tick net_round_trip) const
    {
        return net_round_trip / 2;
    }
};

/** Top-level cluster configuration (defaults reproduce Table III). */
struct ClusterConfig
{
    // --- Cluster geometry -------------------------------------------------
    std::uint32_t numNodes = 5;      //!< N
    std::uint32_t coresPerNode = 5;  //!< C
    std::uint32_t slotsPerCore = 2;  //!< m multiplexed transactions/core

    // --- Core and memory hierarchy ---------------------------------------
    double coreFreqGhz = 2.0;
    CacheParams l1{64 * 1024, 8, 2};
    CacheParams l2{512 * 1024, 8, 12};
    std::uint64_t llcBytesPerCore = 4ull * 1024 * 1024;
    std::uint32_t llcWays = 16;
    std::uint32_t llcCycles = 40;

    // --- HADES hardware primitives ----------------------------------------
    BloomParams coreReadBf{1024, 2};
    SplitWriteBloomParams coreWriteBf{512, 1, 4096};
    BloomParams nicReadBf{1024, 2};
    BloomParams nicWriteBf{1024, 2};
    std::uint32_t crcHashCycles = 2;
    std::uint32_t findTagsMinCycles = 80;
    std::uint32_t findTagsMaxCycles = 120;
    /** 0 means auto-size to 2x the hardware contexts per node. */
    std::uint32_t lockingBuffersPerNode = 0;

    // --- Network -----------------------------------------------------------
    Tick netRoundTrip = us(2);
    double netBandwidthGbps = 200.0;
    std::uint32_t messageHeaderBytes = 64;
    /** Fixed NIC pipeline processing per message (both endpoints). */
    Tick nicProcessing = ns(150);

    // --- Data layout --------------------------------------------------------
    /** Payload bytes per database record (excluding SW-Impl metadata). */
    std::uint32_t recordPayloadBytes = 256;

    // --- Protocol retry / recovery timing ------------------------------------
    /** Consolidated retry/resend/lease tuning (see RobustnessTuning). */
    RobustnessTuning tuning;

    /** Fault-injection plan (disabled by default: zero-cost when off). */
    FaultConfig faults;

    /** Crash recovery / reconfiguration (disabled by default). */
    RecoveryConfig recovery;

    /** Elastic membership: planned joins/drains with live record
     *  migration (disabled by default). */
    MembershipConfig membership;

    /** Latency-SLO tracking, hedged retries and degraded-node
     *  quarantine (disabled by default). */
    SloConfig slo;

    /** Admission control and retry budgets (disabled by default). */
    AdmissionConfig admission;

    /** Sharded parallel-kernel tuning (RunSpec::shards selects the
     *  executor; this only tunes it). */
    ShardingConfig sharding;

    // --- Workload placement --------------------------------------------------
    /** Fraction of requests whose home is the coordinator's node. The
     *  default 0 means "uniform placement" (1/N local, ~20% at N=5,
     *  matching the paper's default). Fig 12b sweeps 0.2/0.5/0.8. */
    double forcedLocalFraction = -1.0;

    std::uint64_t seed = 42;

    /** True if forcedLocalFraction overrides uniform placement. */
    bool hasForcedLocality() const { return forcedLocalFraction >= 0.0; }

    std::uint32_t totalCores() const { return numNodes * coresPerNode; }
    std::uint32_t contextsPerNode() const
    {
        return coresPerNode * slotsPerCore;
    }

    /** Clock helper for this configuration. */
    Clock clock() const { return Clock{coreFreqGhz}; }

    /** Number of LLC sets in one node's shared LLC. */
    std::uint64_t
    llcSets() const
    {
        std::uint64_t size = llcBytesPerCore * coresPerNode;
        return size / (std::uint64_t{kCacheLineBytes} * llcWays);
    }

    SoftwareCostModel costs;
};

} // namespace hades

#endif // HADES_COMMON_CONFIG_HH_
