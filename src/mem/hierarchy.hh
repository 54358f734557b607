/**
 * @file
 * Per-node memory hierarchy timing: private L1/L2 per core, shared LLC
 * directory, DRAM. Returns the Tick cost of an access and keeps the tag
 * arrays in sync with the access stream.
 */

#ifndef HADES_MEM_HIERARCHY_HH_
#define HADES_MEM_HIERARCHY_HH_

#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/time.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/llc_directory.hh"
#include "sim/kernel.hh"

namespace hades::mem
{

/** Which level serviced an access. */
enum class HitLevel
{
    L1,
    L2,
    LLC,
    DRAM,
};

/** The memory system of one node. */
class NodeMemory
{
  public:
    /**
     * @param cfg    cluster configuration
     * @param kernel optional simulation clock; when present, DRAM bank
     *               occupancy is tracked against real simulated time
     *               (without it the DRAM model degenerates to
     *               uncontended estimates)
     */
    explicit NodeMemory(const ClusterConfig &cfg,
                        const sim::Kernel *kernel = nullptr)
        : cfg_(cfg),
          clock_(cfg.clock()),
          kernel_(kernel),
          llc_(cfg.llcBytesPerCore * cfg.coresPerNode, cfg.llcWays)
    {
        l1_.reserve(cfg.coresPerNode);
        l2_.reserve(cfg.coresPerNode);
        for (std::uint32_t c = 0; c < cfg.coresPerNode; ++c) {
            l1_.emplace_back(cfg.l1.sizeBytes, cfg.l1.ways);
            l2_.emplace_back(cfg.l2.sizeBytes, cfg.l2.ways);
        }
    }

    /** Result of a timed access. */
    struct Access
    {
        Tick latency = 0;
        HitLevel level = HitLevel::L1;
    };

    /**
     * Perform one cache-line access by @p core; updates all tag arrays
     * and returns the latency per the Table III round-trip numbers.
     */
    Access
    access(CoreId core, Addr line)
    {
        auto &l1 = l1_[core];
        auto &l2 = l2_[core];
        if (l1.probe(line))
            return {clock_.cycles(cfg_.l1.accessCycles), HitLevel::L1};
        if (l2.probe(line)) {
            l1.insert(line);
            return {clock_.cycles(cfg_.l2.accessCycles), HitLevel::L2};
        }
        if (llc_.probe(line)) {
            l2.insert(line);
            l1.insert(line);
            return {clock_.cycles(cfg_.llcCycles), HitLevel::LLC};
        }
        llc_.insert(line);
        l2.insert(line);
        l1.insert(line);
        return {clock_.cycles(cfg_.llcCycles) + dramAccess(line),
                HitLevel::DRAM};
    }

    /**
     * Probe-only access: returns the latency if @p line is already
     * resident somewhere in this node's hierarchy, and nothing if it
     * would need memory/network. Used for client-side caching of
     * read-only remote index structures: a hit is served locally, a
     * miss falls back to the RDMA fetch path.
     */
    std::optional<Access>
    cachedAccess(CoreId core, Addr line)
    {
        auto &l1 = l1_[core];
        auto &l2 = l2_[core];
        if (l1.probe(line))
            return Access{clock_.cycles(cfg_.l1.accessCycles),
                          HitLevel::L1};
        if (l2.probe(line)) {
            l1.insert(line);
            return Access{clock_.cycles(cfg_.l2.accessCycles),
                          HitLevel::L2};
        }
        if (llc_.probe(line)) {
            l2.insert(line);
            l1.insert(line);
            return Access{clock_.cycles(cfg_.llcCycles),
                          HitLevel::LLC};
        }
        return std::nullopt;
    }

    /**
     * An access from the NIC (RDMA servicing or commit push): goes to
     * the LLC directly, then DRAM on a miss.
     */
    Access
    nicAccess(Addr line)
    {
        if (llc_.probe(line))
            return {clock_.cycles(cfg_.llcCycles), HitLevel::LLC};
        llc_.insert(line);
        return {clock_.cycles(cfg_.llcCycles) + dramAccess(line),
                HitLevel::DRAM};
    }

    /** The shared LLC / directory (HADES tag operations go through it). */
    LlcDirectory &llc() { return llc_; }
    const LlcDirectory &llc() const { return llc_; }

    CacheArray &l1(CoreId core) { return l1_[core]; }
    CacheArray &l2(CoreId core) { return l2_[core]; }

  private:
    Tick
    dramAccess(Addr line)
    {
        Tick now = kernel_ ? kernel_->now() : 0;
        return dram_.access(line, now).latency;
    }

    const ClusterConfig &cfg_;
    Clock clock_;
    const sim::Kernel *kernel_;
    std::vector<CacheArray> l1_;
    std::vector<CacheArray> l2_;
    LlcDirectory llc_;
    DramModel dram_;
};

} // namespace hades::mem

#endif // HADES_MEM_HIERARCHY_HH_
