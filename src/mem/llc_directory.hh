/**
 * @file
 * The node's shared LLC / directory, extended with HADES Module 2:
 * a Writing-Transaction ID (WrTX ID) tag per line.
 *
 * Responsibilities:
 *  - plain tag array behaviour for latency modeling (shared by all three
 *    protocol configurations);
 *  - WrTX ID tags recording the in-progress transaction that
 *    speculatively wrote a line;
 *  - transaction-aware replacement: within a set, prefer evicting lines
 *    that are NOT speculatively modified (Section VIII-C); evicting a
 *    speculative line squashes its owner (reported via a hook);
 *  - Find-LLC-Tags (Section V-C): enumerate all lines tagged with a given
 *    WrTX ID. The hardware does this in parallel using the WrBF2 set
 *    groups; the model maintains an exact per-transaction index and the
 *    protocol engine charges the 80-120 cycle latency of Table III.
 *
 * The tags and LRU stamps use TagArray's compact layout; a per-set mask
 * marks the speculative ways and a sparse map holds their WrTX IDs.
 */

#ifndef HADES_MEM_LLC_DIRECTORY_HH_
#define HADES_MEM_LLC_DIRECTORY_HH_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "mem/tag_array.hh"

namespace hades::mem
{

/** Shared LLC with per-line WrTX ID tags. */
class LlcDirectory
{
  public:
    /** Called when a speculatively-written line must be evicted; the
     *  argument is the packed WrTX ID of the transaction to squash. */
    using SquashHook = std::function<void(std::uint64_t)>;

    LlcDirectory(std::uint64_t size_bytes, std::uint32_t ways);

    void setSquashHook(SquashHook hook) { squashHook_ = std::move(hook); }

    /** Is @p line resident? Updates LRU on hit. */
    bool probe(Addr line) { return tags_.probe(line); }

    /**
     * Bring @p line in. TX-aware replacement: the victim is the LRU way
     * among non-speculative lines; if every way in the set is
     * speculative, the LRU speculative line is evicted and its owner
     * squashed through the hook.
     */
    void insert(Addr line);

    /** WrTX ID tag of @p line, or 0 if untagged / not resident. */
    std::uint64_t wrTxIdOf(Addr line) const;

    /**
     * Tag @p line as speculatively written by @p tx_id. Inserts the line
     * if it is not resident (a transactional write allocates in the LLC:
     * speculative data cannot be evicted to memory).
     */
    void setWrTxId(Addr line, std::uint64_t tx_id);

    /** Find-LLC-Tags: all lines currently tagged by @p tx_id. */
    std::vector<Addr> linesWrittenBy(std::uint64_t tx_id) const;

    /** Number of lines currently tagged by @p tx_id. */
    std::uint64_t numLinesWrittenBy(std::uint64_t tx_id) const;

    /**
     * Clear all of @p tx_id's tags (commit step 4 makes the lines
     * non-speculative; squash invalidates them).
     * @param invalidate true on squash: the lines are dropped entirely.
     */
    void clearTxTags(std::uint64_t tx_id, bool invalidate);

    std::uint64_t numSets() const { return tags_.numSets(); }
    std::uint32_t ways() const { return tags_.ways(); }

    std::uint64_t hits() const { return tags_.hits(); }
    std::uint64_t misses() const { return tags_.misses(); }
    /** Count of speculative lines evicted (each squashed a transaction). */
    std::uint64_t speculativeEvictions() const { return specEvictions_; }

    /** Transactions with WrTX tags still in the array (leak checks). */
    std::size_t taggedTxCount() const { return writers_.size(); }

    /** Bytes held by the tag arrays and the per-set speculative masks
     *  (the sparse WrTX maps below are not counted). */
    std::uint64_t
    footprintBytes() const
    {
        return tags_.footprintBytes() +
               numSets() * sizeof(TagArray::WayMask);
    }

  private:
    /** Bring @p s's line in (TX-aware replacement); returns its way. */
    std::uint32_t place(const TagArray::Slot &s);
    void evict(std::uint64_t set, std::uint32_t way);

    static TagArray::WayMask bit(std::uint32_t way)
    {
        return TagArray::WayMask{1} << way;
    }

    TagArray tags_;
    /** Per set: bit w is set iff way w holds a speculatively written
     *  line. The WrTX IDs themselves live in wrTxIds_. */
    ZeroedArray<TagArray::WayMask> specWays_;
    std::uint64_t specEvictions_ = 0;
    SquashHook squashHook_;

    /** WrTX ID of every speculatively written line. Sparse: only HADES
     *  tags lines, and a transaction holds few at a time. */
    std::unordered_map<Addr, std::uint64_t> wrTxIds_;
    /** Exact index: packed WrTX ID -> tagged lines (model-side stand-in
     *  for the parallel WrBF2-driven tag match of Figure 8). */
    std::unordered_map<std::uint64_t, std::unordered_set<Addr>> writers_;
};

} // namespace hades::mem

#endif // HADES_MEM_LLC_DIRECTORY_HH_
