/**
 * @file
 * Deterministic random number generation for workloads and placement.
 *
 * A seeded xoshiro256** generator keeps every simulation bit-reproducible,
 * which the test suite relies on. The Zipf generator implements the
 * rejection-inversion method of Hormann & Derflinger so that the YCSB
 * zipfian key distribution (Section VII of the paper) is sampled in O(1)
 * without building a table over millions of keys.
 */

#ifndef HADES_COMMON_RNG_HH_
#define HADES_COMMON_RNG_HH_

#include <cmath>
#include <cstdint>

namespace hades
{

/** Small, fast, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 seeding as recommended by the xoshiro authors.
        std::uint64_t x = seed;
        for (auto &word : s_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded sampling.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with skew theta.
 *
 * YCSB's default zipfian constant is 0.99; the paper's key-value store
 * experiments use a zipfian distribution over 4M keys.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t n, double theta = 0.99)
        : n_(n), theta_(theta)
    {
        zeta2_ = zetaStatic(2, theta_);
        zetaN_ = zetaStatic(n_, theta_);
        alpha_ = 1.0 / (1.0 - theta_);
        eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
               (1.0 - zeta2_ / zetaN_);
    }

    /** Draw a sample; item 0 is the most popular. */
    std::uint64_t
    sample(Rng &rng) const
    {
        double u = rng.uniform();
        double uz = u * zetaN_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        auto v = static_cast<std::uint64_t>(
            double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return v >= n_ ? n_ - 1 : v;
    }

  private:
    /**
     * Truncated zeta sum. For the large key spaces in the evaluation the
     * sum is approximated past a fixed prefix with the integral tail,
     * keeping construction O(1)-ish while staying within a fraction of a
     * percent of the exact value.
     */
    static double
    zetaStatic(std::uint64_t n, double theta)
    {
        constexpr std::uint64_t kExactPrefix = 1 << 16;
        double sum = 0.0;
        std::uint64_t prefix = n < kExactPrefix ? n : kExactPrefix;
        for (std::uint64_t i = 1; i <= prefix; ++i)
            sum += std::pow(1.0 / double(i), theta);
        if (n > prefix) {
            // integral of x^-theta from prefix to n
            sum += (std::pow(double(n), 1.0 - theta) -
                    std::pow(double(prefix), 1.0 - theta)) /
                   (1.0 - theta);
        }
        return sum;
    }

    std::uint64_t n_;
    double theta_;
    double zeta2_, zetaN_, alpha_, eta_;
};

} // namespace hades

#endif // HADES_COMMON_RNG_HH_
