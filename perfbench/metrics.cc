#include "metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace hades::perfbench
{

double
interpolatedQuantile(const stats::Histogram &h, double q)
{
    const std::uint64_t n = h.count();
    if (n == 0)
        return 0;
    // Lower bound of the bucket holding the k-th smallest sample.
    auto bucketOf = [&h, n](std::uint64_t k) {
        return h.quantile((double(k) + 0.5) / double(n));
    };
    const auto target = std::min(std::uint64_t(q * double(n)), n - 1);
    const std::uint64_t bound = bucketOf(target);
    // Ranks [first, last] share the target's bucket (binary searches:
    // bucketOf is non-decreasing in k).
    std::uint64_t lo = 0, hi = target;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        bucketOf(mid) < bound ? lo = mid + 1 : hi = mid;
    }
    const std::uint64_t first = lo;
    lo = target;
    hi = n - 1;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        bucketOf(mid) > bound ? hi = mid - 1 : lo = mid;
    }
    const std::uint64_t last = lo;
    // Bucket width of the log-linear layout: 1 below kSubBuckets, else
    // 2^(msb - log2(kSubBuckets) + 1).
    constexpr int kSubBits = std::bit_width(
        unsigned(stats::Histogram::kSubBuckets)) - 1;
    const std::uint64_t width =
        bound < std::uint64_t(stats::Histogram::kSubBuckets)
            ? 1
            : std::uint64_t{1} << (std::bit_width(bound) - kSubBits);
    return double(bound) + double(width) *
                               (double(target - first) + 0.5) /
                               double(last - first + 1);
}

LatencyQuantiles
latencyQuantiles(const stats::Histogram &latency)
{
    LatencyQuantiles q;
    q.p50Us = interpolatedQuantile(latency, 0.50) / double(kMicrosecond);
    q.p99Us = interpolatedQuantile(latency, 0.99) / double(kMicrosecond);
    q.samples = latency.count();
    return q;
}

double
simTps(const std::vector<EngineRun> &runs, protocol::EngineKind engine)
{
    std::uint64_t committed = 0;
    Tick sim_time = 0;
    for (const auto &run : runs) {
        if (run.engine != engine)
            continue;
        committed += run.result.stats.committed;
        sim_time += run.result.simTime;
    }
    return sim_time > 0
               ? double(committed) / (double(sim_time) / double(kSecond))
               : 0;
}

stats::Histogram
pooledLatency(const std::vector<EngineRun> &runs,
              protocol::EngineKind engine)
{
    stats::Histogram h;
    for (const auto &run : runs)
        if (run.engine == engine)
            h.merge(run.result.stats.latency);
    return h;
}

double
speedup(double engine_tps, double baseline_tps)
{
    return baseline_tps > 0 ? engine_tps / baseline_tps : 0;
}

AbortCount
abortCount(const EngineRun &run)
{
    const auto &st = run.result.stats;
    const std::uint64_t shed =
        st.squashes[std::size_t(txn::SquashReason::Shed)];
    AbortCount c;
    c.attempts = st.attempts + shed;
    c.failed = run.correct ? st.totalSquashes() : c.attempts;
    return c;
}

double
abortRate(const std::vector<EngineRun> &runs)
{
    AbortCount sum;
    for (const auto &run : runs) {
        const AbortCount c = abortCount(run);
        sum.failed += c.failed;
        sum.attempts += c.attempts;
    }
    return sum.attempts ? double(sum.failed) / double(sum.attempts) : 0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &m = metrics[i];
        // Full precision; a non-finite value is not JSON, so it prints
        // as 0 and the run is marked incorrect by the caller.
        const double v = std::isfinite(m.value) ? m.value : 0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += i ? ", " : "";
        out += "\"" + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace hades::perfbench
