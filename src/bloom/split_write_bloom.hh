/**
 * @file
 * The split write Bloom filter of Section V-C / Figure 8.
 *
 * The write BF is logically divided into two sections. WrBF1 is a normal
 * CRC-hashed Bloom filter. WrBF2 is filled by taking the LLC set-index
 * bits of an address modulo the WrBF2 size, so each WrBF2 bit corresponds
 * to a small group of LLC sets. Membership requires a hit in both
 * sections; the WrBF2 section additionally lets the hardware enumerate
 * exactly which LLC set groups can hold lines written by the owning
 * transaction, enabling the fast Find-LLC-Tags operation (80-120 cycles in
 * Table III) used at commit and squash.
 */

#ifndef HADES_BLOOM_SPLIT_WRITE_BLOOM_HH_
#define HADES_BLOOM_SPLIT_WRITE_BLOOM_HH_

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace hades::bloom
{

/** WrBF1 (CRC) + WrBF2 (LLC-index mod size) write signature. */
class SplitWriteBloomFilter final : public AddressFilter
{
  public:
    /**
     * @param params   geometry of the two sections
     * @param llc_sets number of sets in the node's LLC (defines the
     *                 set-index hash of WrBF2)
     */
    SplitWriteBloomFilter(const SplitWriteBloomParams &params,
                          std::uint64_t llc_sets);

    void insert(const LineHash &h);
    void insert(Addr line) { insert(LineHash(line)); }

    using AddressFilter::mayContain;
    /** Checks WrBF2 first; the line is hashed only on a WrBF2 hit. */
    bool mayContain(const LineHash &h) const override;
    std::unique_ptr<AddressFilter> clone() const override;
    bool empty() const override { return bf1_.empty(); }

    void clear();

    std::uint64_t insertedCount() const { return bf1_.insertedCount(); }

    /** LLC set index of a line address. */
    std::uint64_t
    llcSetOf(Addr line) const
    {
        return (line / kCacheLineBytes) % llcSets_;
    }

    /** WrBF2 bit covering a given LLC set. */
    std::uint32_t
    bf2BitOf(std::uint64_t llc_set) const
    {
        return static_cast<std::uint32_t>(llc_set % bf2Bits_);
    }

    /** Is the WrBF2 bit for this set group enabled? */
    bool
    bf2BitSet(std::uint32_t bit) const
    {
        return bf2_[bit / 64] & (std::uint64_t{1} << (bit % 64));
    }

    /**
     * Enumerate the LLC sets that can contain lines inserted into this
     * filter: all sets whose WrBF2 bit is set. This is the parallel
     * "enable" signal of Figure 8.
     */
    std::vector<std::uint64_t> candidateLlcSets() const;

    /** Number of WrBF2 bits currently set. */
    std::uint32_t bf2Popcount() const;

  private:
    BloomFilter bf1_;
    std::uint32_t bf2Bits_;
    std::uint64_t llcSets_;
    std::vector<std::uint64_t> bf2_;
};

} // namespace hades::bloom

#endif // HADES_BLOOM_SPLIT_WRITE_BLOOM_HH_
