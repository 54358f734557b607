/**
 * @file
 * Locking Buffers: the partial directory-locking primitive of Section V-B
 * (Figure 7).
 *
 * When a transaction commits, copies of its read and write Bloom filters
 * are loaded into a Locking Buffer next to the directory/LLC. While the
 * buffer is active, every write access to the directory is checked
 * against the buffered read AND write BFs, and every read against the
 * write BF; a hit denies the access (it must retry), which conservatively
 * prevents conflicting accesses during the commit. Multiple buffers allow
 * multiple non-conflicting transactions to commit concurrently: a second
 * committer's write-address list is first checked against the BFs already
 * loaded, and the committer is squashed on a match.
 *
 * The same bank provides the transient read-guard HADES uses to make
 * multi-line reads atomic without per-record version checks (Table I,
 * row 3).
 */

#ifndef HADES_BLOOM_LOCKING_BUFFER_HH_
#define HADES_BLOOM_LOCKING_BUFFER_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "common/types.hh"

namespace hades::bloom
{

/** Outcome of a Locking Buffer acquisition. */
enum class AcquireResult
{
    Acquired, //!< the directory is now partially locked
    Conflict, //!< a committing transaction's BFs overlap the writes
    NoBuffer, //!< every buffer is busy; retry later
};

/** A bank of Locking Buffers attached to one node's directory/LLC. */
class LockingBufferBank
{
  public:
    /** @param num_buffers number of concurrently committing transactions
     *                     the node supports. */
    explicit LockingBufferBank(std::uint32_t num_buffers = 8);

    /**
     * Try to partially lock the directory for a committing transaction.
     *
     * @param owner       packed GlobalTxId of the committer
     * @param read_bf     the committer's read BF (copied in)
     * @param write_bf    the committer's write BF (copied in)
     * @param write_lines the committer's write-line addresses, checked
     *                    against BFs already holding the directory
     * @return Acquired on success; Conflict means a conflicting commit
     *         is in progress (the caller squashes itself); NoBuffer
     *         means the bank is exhausted (the caller retries).
     */
    AcquireResult tryAcquire(std::uint64_t owner,
                             const AddressFilter &read_bf,
                             const AddressFilter &write_bf,
                             std::span<const Addr> write_lines);

    /**
     * Install a transient read guard over @p lines: a read-only BF that
     * stalls concurrent writes to those lines while a multi-line read is
     * in flight. Always succeeds if a buffer is free.
     *
     * @return true on success, false if the bank is full.
     */
    bool acquireReadGuard(std::uint64_t owner,
                          std::span<const Addr> lines);

    /** Drop the buffer held by @p owner (commit finished / guard done).
     *  Freeing a buffer calls the release hook. */
    void release(std::uint64_t owner);

    /** Called whenever release() frees a buffer: the accesses stalled
     *  on this bank may now pass. */
    void setReleaseHook(std::function<void()> hook)
    {
        releaseHook_ = std::move(hook);
    }

    /**
     * Would a directory access to the hashed line be denied right now?
     * Writes are checked against read+write BFs, reads against write BFs.
     * Buffers owned by @p requester are skipped (a committer can touch
     * its own lines). A caller that polls one line in a stall loop
     * passes the same LineHash every time, so the line is hashed at
     * most once.
     */
    bool accessBlocked(const LineHash &h, bool is_write,
                       std::uint64_t requester) const;

    bool
    accessBlocked(Addr line, bool is_write, std::uint64_t requester) const
    {
        return accessBlocked(LineHash(line), is_write, requester);
    }

    /** Is @p owner currently holding a buffer? */
    bool held(std::uint64_t owner) const;

    /** Number of active buffers. */
    std::uint32_t activeCount() const;

    /** Owners of the active buffers, sorted and deduplicated (crash
     *  recovery scans these for a dead coordinator's stranded state). */
    std::vector<std::uint64_t> activeOwners() const;

    // --- instrumentation --------------------------------------------------
    std::uint64_t acquireFailures() const { return acquireFailures_; }

  private:
    struct Buffer
    {
        bool active = false;
        std::uint64_t owner = 0;
        std::unique_ptr<AddressFilter> readBf;  // may be null (guard-free)
        std::unique_ptr<AddressFilter> writeBf; // may be null (read guard)
    };

    Buffer *freeBuffer();

    std::vector<Buffer> buffers_;
    std::uint64_t acquireFailures_ = 0;
    std::function<void()> releaseHook_;
};

} // namespace hades::bloom

#endif // HADES_BLOOM_LOCKING_BUFFER_HH_
