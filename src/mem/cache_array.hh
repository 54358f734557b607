/**
 * @file
 * Generic set-associative cache tag array with LRU replacement.
 *
 * Used to model the private L1/L2 caches (per core) purely for latency:
 * the simulator tracks which lines are resident so that hit/miss outcomes
 * -- and therefore the L1/L2/LLC/DRAM latencies of Table III -- are
 * determined by the actual access stream. The layout is TagArray's
 * (mem/tag_array.hh).
 */

#ifndef HADES_MEM_CACHE_ARRAY_HH_
#define HADES_MEM_CACHE_ARRAY_HH_

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "mem/tag_array.hh"

namespace hades::mem
{

/** Plain tag array: probe / touch / insert with LRU. */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways       associativity
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t ways);

    /** Is @p line resident? Updates LRU on hit. */
    bool probe(Addr line) { return tags_.probe(line); }

    /** Is @p line resident? No LRU update (observation only). */
    bool contains(Addr line) const;

    /**
     * Bring @p line in, evicting the LRU way if the set is full.
     * @return the evicted line address, if any.
     */
    std::optional<Addr> insert(Addr line);

    /** Drop @p line if resident. */
    void invalidate(Addr line);

    /** Drop everything. */
    void clear();

    std::uint64_t numSets() const { return tags_.numSets(); }
    std::uint32_t ways() const { return tags_.ways(); }

    std::uint64_t hits() const { return tags_.hits(); }
    std::uint64_t misses() const { return tags_.misses(); }

    /** Bytes held by the tag arrays. */
    std::uint64_t footprintBytes() const { return tags_.footprintBytes(); }

  private:
    TagArray tags_;
};

} // namespace hades::mem

#endif // HADES_MEM_CACHE_ARRAY_HH_
