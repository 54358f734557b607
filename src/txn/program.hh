/**
 * @file
 * Transaction programs: the workload-facing description of what a
 * transaction does, independent of which protocol engine executes it.
 *
 * A program is a sequence of record requests plus the application
 * compute between them. Writes can be *blind* (store a constant) or
 * *derived* (store a value computed from an earlier read in the same
 * transaction plus a delta). Derived writes are what make serializability
 * observable: the invariant tests run transfer transactions whose
 * conservation property only holds if the protocol is correct.
 */

#ifndef HADES_TXN_PROGRAM_HH_
#define HADES_TXN_PROGRAM_HH_

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hades::txn
{

/** One record access inside a transaction. */
struct Request
{
    /** Logical record id (placement decides home node and address). */
    std::uint64_t record = 0;
    bool isWrite = false;
    /** Byte offset of the accessed field within the record payload. */
    std::uint32_t offsetBytes = 0;
    /** Bytes accessed; 0 means the whole record payload. */
    std::uint32_t sizeBytes = 0;
    /**
     * Full payload size of the target record; 0 means the run's default
     * record size. Index nodes of the key-value stores are records of
     * their own size (FaRM-style stores build indexes out of records),
     * so requests carry the target's size.
     */
    std::uint32_t recordPayloadBytes = 0;
    /**
     * Index-structure read: FaRM-family stores traverse their indexes
     * with atomic but *unvalidated* reads (the structures are read-only
     * between resize epochs), so the software engines fetch and
     * atomicity-check these but do not add them to the Read Set.
     */
    bool isIndex = false;
    /**
     * For writes: if >= 0, the written value is
     * readValue[derivedFromReadIdx] + delta, where the index counts the
     * reads of this transaction in order. If < 0 the write stores
     * `delta` directly (blind write).
     */
    int derivedFromReadIdx = -1;
    std::int64_t delta = 0;

    /** The value a write stores, given this transaction's reads so far
     *  (in order). */
    std::int64_t
    writtenValue(const std::vector<std::int64_t> &read_vals) const
    {
        return derivedFromReadIdx >= 0
                   ? read_vals[std::size_t(derivedFromReadIdx)] + delta
                   : delta;
    }
};

/** A complete transaction description. */
struct TxnProgram
{
    std::vector<Request> requests;
    /** Application compute charged before each request (cycles). */
    std::uint32_t computeCyclesPerRequest = 200;
    /** Extra application compute at transaction begin (cycles). */
    std::uint32_t setupCycles = 100;

    std::uint32_t
    numReads() const
    {
        std::uint32_t n = 0;
        for (const auto &r : requests)
            n += r.isWrite ? 0 : 1;
        return n;
    }

    std::uint32_t
    numWrites() const
    {
        std::uint32_t n = 0;
        for (const auto &r : requests)
            n += r.isWrite ? 1 : 0;
        return n;
    }
};

} // namespace hades::txn

#endif // HADES_TXN_PROGRAM_HH_
