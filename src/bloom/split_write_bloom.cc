#include "bloom/split_write_bloom.hh"

#include <bit>

#include "common/log.hh"

namespace hades::bloom
{

SplitWriteBloomFilter::SplitWriteBloomFilter(
    const SplitWriteBloomParams &params, std::uint64_t llc_sets)
    : bf1_(params.bf1Bits, params.bf1Hashes),
      bf2Bits_(params.bf2Bits),
      llcSets_(llc_sets),
      bf2_((params.bf2Bits + 63) / 64, 0)
{
    always_assert(llc_sets > 0, "LLC must have at least one set");
    always_assert(params.bf2Bits >= 64, "WrBF2 too small");
}

void
SplitWriteBloomFilter::insert(const LineHash &h)
{
    bf1_.insert(h);
    std::uint32_t bit = bf2BitOf(llcSetOf(h.line()));
    bf2_[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

bool
SplitWriteBloomFilter::mayContain(const LineHash &h) const
{
    if (!bf2BitSet(bf2BitOf(llcSetOf(h.line()))))
        return false;
    return bf1_.mayContain(h);
}

std::unique_ptr<AddressFilter>
SplitWriteBloomFilter::clone() const
{
    return std::make_unique<SplitWriteBloomFilter>(*this);
}

void
SplitWriteBloomFilter::clear()
{
    bf1_.clear();
    std::fill(bf2_.begin(), bf2_.end(), 0);
}

std::vector<std::uint64_t>
SplitWriteBloomFilter::candidateLlcSets() const
{
    std::vector<std::uint64_t> sets;
    for (std::uint64_t set = 0; set < llcSets_; ++set)
        if (bf2BitSet(bf2BitOf(set)))
            sets.push_back(set);
    return sets;
}

std::uint32_t
SplitWriteBloomFilter::bf2Popcount() const
{
    std::uint32_t n = 0;
    for (auto w : bf2_)
        n += static_cast<std::uint32_t>(std::popcount(w));
    return n;
}

} // namespace hades::bloom
