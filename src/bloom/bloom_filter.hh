/**
 * @file
 * Bloom filter signatures used for transaction conflict detection.
 *
 * These model the read/write hardware Bloom filters of HADES (Module 3 in
 * the cores, Module 4a in the NICs). Hashing follows the paper: a CRC
 * base hash (Table III charges 2 cycles for it), from which k indices are
 * derived with the standard double-hashing construction used by signature
 * hardware (Sanchez et al., "Implementing Signatures for Transactional
 * Memory").
 */

#ifndef HADES_BLOOM_BLOOM_FILTER_HH_
#define HADES_BLOOM_BLOOM_FILTER_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hh"
#include "common/types.hh"

namespace hades::bloom
{

/**
 * A cache-line address with the base hashes every k-index derives
 * from: one CRC pass (h1) and its mix (h2, forced odd). The pass runs
 * on first use, so a probe that rules the line out without hashing it
 * (a clear WrBF2 bit) costs none, and every later probe of the same
 * LineHash reuses it: one line is hashed once, the way the hardware
 * derives all of a line's indices from a single hashed value.
 */
class LineHash
{
  public:
    explicit constexpr LineHash(Addr line) : line_(line) {}

    Addr line() const { return line_; }

    std::uint64_t
    h1() const
    {
        hash();
        return h1_;
    }

    std::uint64_t
    h2() const
    {
        hash();
        return h2_;
    }

  private:
    /** h2 is odd once computed, so zero marks "not hashed yet". */
    void
    hash() const
    {
        if (h2_ == 0) {
            h1_ = Crc64::hash(line_);
            h2_ = mix64(h1_) | 1; // odd => full period
        }
    }

    Addr line_;
    mutable std::uint64_t h1_ = 0;
    mutable std::uint64_t h2_ = 0;
};

/** Abstract membership filter, so Locking Buffers can hold either the
 *  plain NIC filters or the split core write filters uniformly. */
class AddressFilter
{
  public:
    virtual ~AddressFilter() = default;

    /** May the filter contain the hashed line? (false positives
     *  possible, false negatives impossible). */
    virtual bool mayContain(const LineHash &h) const = 0;

    /** May the filter contain @p line? */
    bool mayContain(Addr line) const { return mayContain(LineHash(line)); }

    /** Deep copy (used when BFs are copied into a Locking Buffer). */
    virtual std::unique_ptr<AddressFilter> clone() const = 0;

    /** True if nothing has been inserted. */
    virtual bool empty() const = 0;
};

/** Classic k-hash Bloom filter over cache-line addresses. */
class BloomFilter final : public AddressFilter
{
  public:
    /**
     * @param bits      filter size in bits (a power of two, >= 64)
     * @param num_hashes number of hash functions (k)
     */
    explicit BloomFilter(std::uint32_t bits = 1024,
                         std::uint32_t num_hashes = 4);

    /** Insert a cache-line address. */
    void insert(const LineHash &h);
    void insert(Addr line) { insert(LineHash(line)); }

    using AddressFilter::mayContain;
    bool mayContain(const LineHash &h) const override;
    std::unique_ptr<AddressFilter> clone() const override;
    bool empty() const override { return inserted_ == 0; }

    /** Remove all contents. */
    void clear();

    /** Number of insert() calls since the last clear(). */
    std::uint64_t insertedCount() const { return inserted_; }

    /** Number of bits set (filter occupancy). */
    std::uint32_t popcount() const;

    std::uint32_t sizeBits() const { return bits_; }

    /**
     * Theoretical false-positive probability after @p n distinct
     * insertions: (1 - e^{-kn/m})^k.
     */
    static double theoreticalFpr(std::uint32_t bits,
                                 std::uint32_t num_hashes, std::uint64_t n);

  private:
    /** Double hashing: h_i = h1 + i*h2 (Kirsch-Mitzenmacher), reduced
     *  modulo the power-of-two size by a mask. */
    std::uint32_t
    bitIndex(std::uint64_t h1, std::uint64_t h2, std::uint32_t i) const
    {
        return static_cast<std::uint32_t>(
            (h1 + std::uint64_t{i} * h2) & (bits_ - 1));
    }

    std::uint32_t bits_;
    std::uint32_t numHashes_;
    std::uint64_t inserted_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace hades::bloom

#endif // HADES_BLOOM_BLOOM_FILTER_HH_
