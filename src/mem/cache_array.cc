#include "mem/cache_array.hh"

namespace hades::mem
{

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t ways)
    : tags_(size_bytes, ways)
{
}

bool
CacheArray::contains(Addr line) const
{
    return tags_.find(tags_.slotOf(line)) != TagArray::kNoWay;
}

std::optional<Addr>
CacheArray::insert(Addr line)
{
    const auto s = tags_.slotOf(line);
    std::uint32_t w = tags_.find(s);
    if (w != TagArray::kNoWay) {
        tags_.touch(s.set, w);
        return std::nullopt;
    }
    std::optional<Addr> evicted;
    w = tags_.freeWay(s.set);
    if (w == TagArray::kNoWay) {
        w = tags_.lruWay(s.set, tags_.allWays());
        evicted = tags_.lineAt(s.set, w);
    }
    tags_.fill(s, w);
    return evicted;
}

void
CacheArray::invalidate(Addr line)
{
    const auto s = tags_.slotOf(line);
    const std::uint32_t w = tags_.find(s);
    if (w != TagArray::kNoWay)
        tags_.invalidate(s.set, w);
}

void
CacheArray::clear()
{
    tags_.clear();
}

} // namespace hades::mem
