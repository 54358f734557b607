#include "bloom/locking_buffer.hh"

#include <algorithm>

#include "common/log.hh"

namespace hades::bloom
{

LockingBufferBank::LockingBufferBank(std::uint32_t num_buffers)
    : buffers_(num_buffers)
{
    always_assert(num_buffers >= 1, "need at least one Locking Buffer");
}

LockingBufferBank::Buffer *
LockingBufferBank::freeBuffer()
{
    for (auto &b : buffers_)
        if (!b.active)
            return &b;
    return nullptr;
}

AcquireResult
LockingBufferBank::tryAcquire(std::uint64_t owner,
                              const AddressFilter &read_bf,
                              const AddressFilter &write_bf,
                              std::span<const Addr> write_lines)
{
    // A committer re-acquiring is a protocol bug.
    always_assert(!held(owner), "owner already holds a Locking Buffer");

    // Check the incoming write addresses against every BF already
    // partially locking the directory (Section V-B): a hit means the two
    // transactions cannot commit concurrently. Each line is hashed once
    // for all buffers.
    for (Addr line : write_lines) {
        const LineHash h(line);
        for (const auto &b : buffers_) {
            if (!b.active || b.owner == owner)
                continue;
            if ((b.readBf && b.readBf->mayContain(h)) ||
                (b.writeBf && b.writeBf->mayContain(h))) {
                ++acquireFailures_;
                return AcquireResult::Conflict;
            }
        }
    }

    Buffer *buf = freeBuffer();
    if (!buf) {
        ++acquireFailures_;
        return AcquireResult::NoBuffer;
    }
    buf->active = true;
    buf->owner = owner;
    buf->readBf = read_bf.clone();
    buf->writeBf = write_bf.clone();
    return AcquireResult::Acquired;
}

bool
LockingBufferBank::acquireReadGuard(std::uint64_t owner,
                                    std::span<const Addr> lines)
{
    Buffer *buf = freeBuffer();
    if (!buf) {
        ++acquireFailures_;
        return false;
    }
    auto bf = std::make_unique<BloomFilter>(1024, 4);
    for (Addr line : lines)
        bf->insert(line);
    buf->active = true;
    buf->owner = owner;
    buf->readBf = std::move(bf);
    buf->writeBf = nullptr;
    return true;
}

void
LockingBufferBank::release(std::uint64_t owner)
{
    for (auto &b : buffers_) {
        if (b.active && b.owner == owner) {
            b.active = false;
            b.readBf.reset();
            b.writeBf.reset();
            if (releaseHook_)
                releaseHook_();
            return;
        }
    }
}

bool
LockingBufferBank::accessBlocked(const LineHash &h, bool is_write,
                                 std::uint64_t requester) const
{
    for (const auto &b : buffers_) {
        if (!b.active || b.owner == requester)
            continue;
        if (is_write && b.readBf && b.readBf->mayContain(h))
            return true;
        if (b.writeBf && b.writeBf->mayContain(h))
            return true;
    }
    return false;
}

bool
LockingBufferBank::held(std::uint64_t owner) const
{
    for (const auto &b : buffers_)
        if (b.active && b.owner == owner)
            return true;
    return false;
}

std::uint32_t
LockingBufferBank::activeCount() const
{
    std::uint32_t n = 0;
    for (const auto &b : buffers_)
        n += b.active ? 1 : 0;
    return n;
}

std::vector<std::uint64_t>
LockingBufferBank::activeOwners() const
{
    std::vector<std::uint64_t> owners;
    for (const auto &b : buffers_)
        if (b.active)
            owners.push_back(b.owner);
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()),
                 owners.end());
    return owners;
}

} // namespace hades::bloom
