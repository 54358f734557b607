/**
 * @file
 * Hash functions used by the Bloom-filter hardware model.
 *
 * The paper fills WrBF1 "by hashing addresses using a conventional hash
 * function (e.g., CRC)" (Section V-C) and quotes a 2-cycle CRC latency in
 * Table III. We implement a table-driven CRC-64 plus a cheap mixing
 * finalizer to derive the k independent hash functions a Bloom filter
 * needs from a single CRC pass, mirroring how signature hardware derives
 * multiple indices from one hashed value.
 */

#ifndef HADES_COMMON_HASH_HH_
#define HADES_COMMON_HASH_HH_

#include <array>
#include <cstdint>

namespace hades
{

namespace detail
{

/** The byte table of the reflected ECMA-182 CRC-64, built at compile
 *  time. */
constexpr std::array<std::uint64_t, 256>
makeCrc64Table()
{
    constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;
    std::array<std::uint64_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint64_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
        t[i] = crc;
    }
    return t;
}

inline constexpr std::array<std::uint64_t, 256> kCrc64Table =
    makeCrc64Table();

} // namespace detail

/** Table-driven CRC-64 (ECMA-182 polynomial). */
class Crc64
{
  public:
    /** CRC of an 8-byte value, with an optional seed to vary the hash. */
    static constexpr std::uint64_t
    hash(std::uint64_t value, std::uint64_t seed = 0)
    {
        std::uint64_t crc = ~seed;
        for (int i = 0; i < 8; ++i) {
            auto byte = static_cast<std::uint8_t>(value >> (i * 8));
            crc = detail::kCrc64Table[(crc ^ byte) & 0xff] ^ (crc >> 8);
        }
        return ~crc;
    }
};

/** Stafford's mix13 finalizer; a cheap high-quality 64-bit mixer. */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace hades

#endif // HADES_COMMON_HASH_HH_
