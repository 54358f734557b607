#include "mem/llc_directory.hh"

#include <algorithm>

#include "common/log.hh"

namespace hades::mem
{

LlcDirectory::LlcDirectory(std::uint64_t size_bytes, std::uint32_t ways)
    : tags_(size_bytes, ways), specWays_(tags_.numSets())
{
}

void
LlcDirectory::evict(std::uint64_t set, std::uint32_t way)
{
    if (!(specWays_[set] & bit(way)))
        return; // a clean victim is simply overwritten
    // Evicting a speculatively-written line squashes its transaction
    // (Section V-A, "Transaction Squash").
    ++specEvictions_;
    const Addr line = tags_.lineAt(set, way);
    const auto tagged = wrTxIds_.find(line);
    const std::uint64_t owner = tagged->second;
    wrTxIds_.erase(tagged);
    auto it = writers_.find(owner);
    it->second.erase(line);
    if (it->second.empty())
        writers_.erase(it);
    specWays_[set] &= ~bit(way);
    tags_.invalidate(set, way);
    if (squashHook_)
        squashHook_(owner);
}

std::uint32_t
LlcDirectory::place(const TagArray::Slot &s)
{
    std::uint32_t w = tags_.find(s);
    if (w != TagArray::kNoWay) {
        tags_.touch(s.set, w);
        return w;
    }
    // A free way first; else the LRU way among non-speculative lines
    // (TX-aware replacement); else every way is speculative and the LRU
    // one is evicted, squashing its owner.
    w = tags_.freeWay(s.set);
    if (w == TagArray::kNoWay) {
        const TagArray::WayMask spec = specWays_[s.set];
        const TagArray::WayMask clean = tags_.allWays() & ~spec;
        w = tags_.lruWay(s.set, clean ? clean : spec);
        evict(s.set, w);
    }
    tags_.fill(s, w);
    return w;
}

void
LlcDirectory::insert(Addr line)
{
    place(tags_.slotOf(line));
}

std::uint64_t
LlcDirectory::wrTxIdOf(Addr line) const
{
    const auto s = tags_.slotOf(line);
    const std::uint32_t w = tags_.find(s);
    if (w == TagArray::kNoWay || !(specWays_[s.set] & bit(w)))
        return 0;
    return wrTxIds_.at(line);
}

void
LlcDirectory::setWrTxId(Addr line, std::uint64_t tx_id)
{
    always_assert(tx_id != 0, "WrTX ID 0 is reserved for 'untagged'");
    const auto s = tags_.slotOf(line);
    // If the insert itself squashed tx_id (pathological single-set
    // thrash), the caller will observe its own squash flag; still tag.
    const std::uint32_t w = place(s);
    if (specWays_[s.set] & bit(w)) {
        // Overwriting another transaction's speculative line must have
        // been cleared by conflict detection first; treat as model bug.
        if (wrTxIds_.at(line) != tx_id)
            panic("setWrTxId over a line tagged by another transaction");
        return;
    }
    specWays_[s.set] |= bit(w);
    wrTxIds_.emplace(line, tx_id);
    writers_[tx_id].insert(line);
}

std::vector<Addr>
LlcDirectory::linesWrittenBy(std::uint64_t tx_id) const
{
    std::vector<Addr> out;
    auto it = writers_.find(tx_id);
    if (it == writers_.end())
        return out;
    // The exact index is a hash set; sort so the enumeration order the
    // protocol engines act on is platform-independent.
    out.assign(it->second.begin(), it->second.end()); // det-lint: ordered-ok (sorted below)
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
LlcDirectory::numLinesWrittenBy(std::uint64_t tx_id) const
{
    auto it = writers_.find(tx_id);
    return it == writers_.end() ? 0 : it->second.size();
}

void
LlcDirectory::clearTxTags(std::uint64_t tx_id, bool invalidate)
{
    auto it = writers_.find(tx_id);
    if (it == writers_.end())
        return;
    // Per-line untag/invalidate is order-insensitive (no LRU stamps).
    for (Addr line : it->second) { // det-lint: ordered-ok
        // Every tagged line is resident: evicting one drops its tag.
        const auto s = tags_.slotOf(line);
        const std::uint32_t w = tags_.find(s);
        specWays_[s.set] &= ~bit(w);
        if (invalidate)
            tags_.invalidate(s.set, w);
        wrTxIds_.erase(line);
    }
    writers_.erase(it);
}

} // namespace hades::mem
