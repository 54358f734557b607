/**
 * @file
 * Compact set-associative tag store: the layout behind CacheArray (the
 * private L1/L2 of a core) and LlcDirectory (a node's shared LLC).
 *
 * Per modelled line it keeps a 64-bit tag and a 16-bit LRU stamp, in two
 * separate arrays so that a probe scans tags only (the 8 ways of an L1/L2
 * set fill one host cache line, the 16 LLC ways two). Per set it keeps a
 * 16-bit LRU clock. The tag of a line is line / 64 / sets + 1, so tag 0
 * means "invalid" and every array starts as zero-filled calloc memory:
 * building a node runs no per-element initialisation, and the pages of a
 * large array stay unmapped until the simulation touches them.
 *
 * Replacement compares the stamps of one set only, so a per-set clock
 * orders the ways of a set exactly as one array-wide counter would: a
 * touch stamps the way with ++clock of its set. When a clock reaches its
 * maximum the set's valid stamps are renamed 1..k in their order, so a
 * stamp never wraps and the LRU order is never disturbed.
 */

#ifndef HADES_MEM_TAG_ARRAY_HH_
#define HADES_MEM_TAG_ARRAY_HH_

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

#include "common/log.hh"
#include "common/types.hh"

namespace hades::mem
{

/** A calloc'd array of a trivial type: all-zero from the start. */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivial_v<T>);

  public:
    explicit ZeroedArray(std::size_t n)
        : p_(static_cast<T *>(std::calloc(n, sizeof(T))))
    {
        if (!p_)
            throw std::bad_alloc();
    }

    T &operator[](std::size_t i) { return p_.get()[i]; }
    const T &operator[](std::size_t i) const { return p_.get()[i]; }
    T *data() { return p_.get(); }

  private:
    struct Free
    {
        void operator()(T *p) const { std::free(p); }
    };
    std::unique_ptr<T, Free> p_;
};

/** Tags and LRU stamps of a set-associative array, with probe counts. */
class TagArray
{
  public:
    /** Bit w stands for way w of one set. */
    using WayMask = std::uint32_t;
    static constexpr std::uint32_t kMaxWays = 32;
    /** "No such way" result of the lookups. */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    TagArray(std::uint64_t size_bytes, std::uint32_t ways)
        : sets_(setsOf(size_bytes, ways)), ways_(ways),
          tags_(sets_ * ways_), stamps_(sets_ * ways_), clocks_(sets_)
    {
    }

    /** Where a line lives: its set and its (nonzero) tag. */
    struct Slot
    {
        std::uint64_t set;
        std::uint64_t tag;
    };

    Slot
    slotOf(Addr line) const
    {
        always_assert(line % kCacheLineBytes == 0,
                      "tag arrays take line-aligned addresses");
        const std::uint64_t block = line / kCacheLineBytes;
        const std::uint64_t high = block / sets_;
        return {block - high * sets_, high + 1};
    }

    /** The way of @p s.set holding @p s.tag, or kNoWay. */
    std::uint32_t
    find(const Slot &s) const
    {
        const std::uint64_t *tags = &tags_[s.set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (tags[w] == s.tag)
                return w;
        return kNoWay;
    }

    /** Is @p line resident? Updates LRU and the hit/miss counts. */
    bool
    probe(Addr line)
    {
        const Slot s = slotOf(line);
        const std::uint32_t w = find(s);
        if (w == kNoWay) {
            ++misses_;
            return false;
        }
        touch(s.set, w);
        ++hits_;
        return true;
    }

    /** The first invalid way of @p set, or kNoWay if the set is full. */
    std::uint32_t freeWay(std::uint64_t set) const { return find({set, 0}); }

    /** The least recently used way among @p among (nonempty). */
    std::uint32_t
    lruWay(std::uint64_t set, WayMask among) const
    {
        const std::uint16_t *stamps = &stamps_[set * ways_];
        auto victim = std::uint32_t(std::countr_zero(among));
        for (WayMask m = among & (among - 1); m; m &= m - 1) {
            const auto w = std::uint32_t(std::countr_zero(m));
            if (stamps[w] < stamps[victim])
                victim = w;
        }
        return victim;
    }

    WayMask allWays() const { return ~WayMask{0} >> (kMaxWays - ways_); }

    /** The line held by valid way @p w of @p set. */
    Addr
    lineAt(std::uint64_t set, std::uint32_t w) const
    {
        return ((tags_[set * ways_ + w] - 1) * sets_ + set) *
               kCacheLineBytes;
    }

    /** Way @p w of @p s.set now holds @p s.tag, most recently used. */
    void
    fill(const Slot &s, std::uint32_t w)
    {
        tags_[s.set * ways_ + w] = s.tag;
        touch(s.set, w);
    }

    /** Make way @p w of @p set the most recently used. */
    void
    touch(std::uint64_t set, std::uint32_t w)
    {
        std::uint16_t &clock = clocks_[set];
        if (clock == std::numeric_limits<std::uint16_t>::max())
            renumber(set);
        stamps_[set * ways_ + w] = ++clock;
    }

    void invalidate(std::uint64_t set, std::uint32_t w)
    {
        tags_[set * ways_ + w] = 0;
    }

    void
    clear()
    {
        std::memset(tags_.data(), 0, sets_ * ways_ * sizeof(std::uint64_t));
    }

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Bytes held by the arrays (tags, stamps, clocks). */
    std::uint64_t
    footprintBytes() const
    {
        constexpr std::uint64_t kPerLine =
            sizeof(std::uint64_t) + sizeof(std::uint16_t);
        return sets_ * ways_ * kPerLine + sets_ * sizeof(std::uint16_t);
    }

  private:
    static std::uint64_t
    setsOf(std::uint64_t size_bytes, std::uint32_t ways)
    {
        always_assert(ways >= 1 && ways <= kMaxWays,
                      "associativity must be 1..32 ways");
        const std::uint64_t sets =
            size_bytes / (std::uint64_t{kCacheLineBytes} * ways);
        always_assert(sets >= 1, "cache has no sets");
        return sets;
    }

    /** Rename the valid stamps of @p set to 1..k in their order. */
    void
    renumber(std::uint64_t set)
    {
        const std::uint64_t *tags = &tags_[set * ways_];
        std::uint16_t *stamps = &stamps_[set * ways_];
        std::uint16_t renamed[kMaxWays] = {};
        std::uint16_t k = 0;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (tags[w] == 0)
                continue;
            std::uint16_t rank = 1;
            for (std::uint32_t v = 0; v < ways_; ++v)
                rank += tags[v] != 0 && stamps[v] < stamps[w];
            renamed[w] = rank;
            ++k;
        }
        std::memcpy(stamps, renamed, ways_ * sizeof(std::uint16_t));
        clocks_[set] = k;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    ZeroedArray<std::uint64_t> tags_;   //!< 0 = invalid
    ZeroedArray<std::uint16_t> stamps_; //!< per-set LRU order
    ZeroedArray<std::uint16_t> clocks_; //!< per set: its newest stamp
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace hades::mem

#endif // HADES_MEM_TAG_ARRAY_HH_
