#include "bloom/bloom_filter.hh"

#include <bit>
#include <cmath>

#include "common/log.hh"

namespace hades::bloom
{

BloomFilter::BloomFilter(std::uint32_t bits, std::uint32_t num_hashes)
    : bits_(bits), numHashes_(num_hashes), words_((bits + 63) / 64, 0)
{
    always_assert(bits >= 64, "Bloom filter too small");
    always_assert(std::has_single_bit(bits),
                  "Bloom filter size must be a power of two");
    always_assert(num_hashes >= 1, "need at least one hash function");
}

void
BloomFilter::insert(const LineHash &h)
{
    const std::uint64_t h1 = h.h1(), h2 = h.h2();
    for (std::uint32_t i = 0; i < numHashes_; ++i) {
        std::uint32_t b = bitIndex(h1, h2, i);
        words_[b / 64] |= std::uint64_t{1} << (b % 64);
    }
    ++inserted_;
}

bool
BloomFilter::mayContain(const LineHash &h) const
{
    if (inserted_ == 0)
        return false;
    const std::uint64_t h1 = h.h1(), h2 = h.h2();
    for (std::uint32_t i = 0; i < numHashes_; ++i) {
        std::uint32_t b = bitIndex(h1, h2, i);
        if (!(words_[b / 64] & (std::uint64_t{1} << (b % 64))))
            return false;
    }
    return true;
}

std::unique_ptr<AddressFilter>
BloomFilter::clone() const
{
    return std::make_unique<BloomFilter>(*this);
}

void
BloomFilter::clear()
{
    std::fill(words_.begin(), words_.end(), 0);
    inserted_ = 0;
}

std::uint32_t
BloomFilter::popcount() const
{
    std::uint32_t n = 0;
    for (auto w : words_)
        n += static_cast<std::uint32_t>(std::popcount(w));
    return n;
}

double
BloomFilter::theoreticalFpr(std::uint32_t bits, std::uint32_t num_hashes,
                            std::uint64_t n)
{
    double m = bits;
    double k = num_hashes;
    return std::pow(1.0 - std::exp(-k * double(n) / m), k);
}

} // namespace hades::bloom
