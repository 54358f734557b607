/**
 * @file
 * Fundamental type aliases and constants shared by every HADES subsystem.
 *
 * The simulator measures time in integer picoseconds (Tick) so that the
 * 2 GHz core clock (500 ps/cycle), 100 ns DRAM accesses, and 2 us network
 * round trips from Table III of the paper are all exactly representable.
 */

#ifndef HADES_COMMON_TYPES_HH_
#define HADES_COMMON_TYPES_HH_

#include <cstdint>
#include <cstddef>

namespace hades
{

/** Simulated time in picoseconds. */
using Tick = std::int64_t;

/** "Never" sentinel for Tick deadlines (e.g. permanent crashes). */
inline constexpr Tick kTickMax = INT64_MAX;

/** Short spellings of the counter types in the result-counter tables
 *  (txn/txn_stats.hh, core/runner.hh). */
using u64 = std::uint64_t;
using u32 = std::uint32_t;

/** Physical (simulated) byte address within a node's address space. */
using Addr = std::uint64_t;

/** Index of a node in the cluster, 0..N-1. */
using NodeId = std::uint32_t;

/** Index of a core within its node, 0..C-1. */
using CoreId = std::uint32_t;

/** Index of a multiplexed hardware transaction context on a core, 0..m-1. */
using SlotId = std::uint32_t;

/** Monotone identifier for one transaction *attempt* (changes on retry). */
using TxnAttemptId = std::uint64_t;

/** Logical key in a key-value store or database table. */
using Key = std::uint64_t;

/** Cache line size used throughout the cluster model. */
inline constexpr std::uint32_t kCacheLineBytes = 64;

/** Invalid/sentinel node id. */
inline constexpr NodeId kInvalidNode = ~NodeId{0};

/**
 * Globally unique identifier of a hardware transaction context.
 *
 * This is the WrTX ID of the paper: every LLC directory line tagged by a
 * speculative write records one of these, and every Bloom filter bank in a
 * NIC is indexed by one. The id identifies the (node, core, slot) context,
 * not an individual attempt; attempts are distinguished by an epoch that
 * the protocol engines bump on squash.
 */
struct GlobalTxId
{
    NodeId node = kInvalidNode;
    CoreId core = 0;
    SlotId slot = 0;

    friend bool operator==(const GlobalTxId &, const GlobalTxId &) = default;

    /**
     * Dense encoding used as a map key and as the LLC WrTX ID tag
     * value. Bit 62 is always set so that no context encodes to 0,
     * which the directory reserves for "untagged"; bits 48..61 carry
     * the protocol engines' retry epoch.
     */
    std::uint64_t
    pack() const
    {
        return (std::uint64_t{1} << 62) | (std::uint64_t{node} << 32) |
               (std::uint64_t{core} << 8) | std::uint64_t{slot};
    }
};

/** A contiguous range of byte addresses [base, base + bytes). */
struct AddrRange
{
    Addr base = 0;
    std::uint32_t bytes = 0;

    Addr end() const { return base + bytes; }

    /** First cache-line address covered by the range. */
    Addr firstLine() const { return base & ~Addr{kCacheLineBytes - 1}; }

    /** Last cache-line address covered by the range. */
    Addr
    lastLine() const
    {
        return (base + bytes - 1) & ~Addr{kCacheLineBytes - 1};
    }

    /** Number of cache lines the range touches. */
    std::uint32_t
    numLines() const
    {
        if (bytes == 0)
            return 0;
        return static_cast<std::uint32_t>(
            (lastLine() - firstLine()) / kCacheLineBytes + 1);
    }

    friend bool operator==(const AddrRange &, const AddrRange &) = default;
};

/** Round an address down to its cache-line base. */
inline Addr
lineAddr(Addr a)
{
    return a & ~Addr{kCacheLineBytes - 1};
}

} // namespace hades

#endif // HADES_COMMON_TYPES_HH_
