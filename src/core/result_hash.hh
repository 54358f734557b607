/**
 * @file
 * Determinism-hash helper shared by the differential test suites and
 * the chaos fuzzer's threaded-messaging differential.
 *
 * hashResult() folds every *semantic* RunResult field into one FNV-1a
 * digest: two runs are "the same run" iff their digests match. Counters
 * marked Observed in the counter tables (runner.hh, txn_stats.hh) are
 * deliberately excluded -- the sharded-execution metadata describes how
 * the run executed, not what it computed, and the whole point of a
 * differential harness is that runs with different shard counts hash
 * equal.
 */

#ifndef HADES_CORE_RESULT_HASH_HH_
#define HADES_CORE_RESULT_HASH_HH_

#include <bit>
#include <cstdint>
#include <string>

#include "core/runner.hh"

namespace hades::core
{

/** FNV-1a over every observable RunResult field. Doubles are hashed by
 *  bit pattern: "close" is not "equal" for a determinism contract. */
class ResultHasher
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        u64(s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t
hashResult(const RunResult &r)
{
    ResultHasher h;
    auto counter = [&h](const txn::CounterInfo &c, auto v) {
        if (c.hashing == txn::Hashing::Hashed)
            h.u64(static_cast<std::uint64_t>(v));
    };
    h.str(r.label);
    txn::forEachStatsCounter(r.stats, counter, [&] {
        for (auto s : r.stats.squashes)
            h.u64(s);
        for (auto t : r.stats.overheadTicks)
            h.u64(static_cast<std::uint64_t>(t));
    });
    h.u64(static_cast<std::uint64_t>(r.simTime));
    h.d(r.throughputTps);
    h.d(r.meanLatencyUs);
    h.d(r.p95LatencyUs);
    h.d(r.p50LatencyUs);
    h.d(r.execUs);
    h.d(r.validationUs);
    h.d(r.commitUs);
    for (double s : r.overheadShare)
        h.d(s);
    h.d(r.otherShare);
    h.d(r.squashRate);
    h.d(r.evictionSquashRate);
    h.d(r.bfFalsePositiveRate);
    forEachResultCounter(r, counter);
    return h.value();
}

} // namespace hades::core

#endif // HADES_CORE_RESULT_HASH_HH_
