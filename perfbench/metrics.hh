/**
 * @file
 * The benchmark's metric arithmetic, kept apart from the runs so it can
 * be tested on hand-made inputs: latency quantiles, the bases of the
 * speed-up and abort-rate ratios, medians, and the one-line JSON result.
 */

#ifndef HADES_PERFBENCH_METRICS_HH_
#define HADES_PERFBENCH_METRICS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/runner.hh"

namespace hades::perfbench
{

/** One finished engine run of a workload. */
struct EngineRun
{
    protocol::EngineKind engine = protocol::EngineKind::Baseline;
    core::RunResult result;
    /** Host seconds runOne() took, a discarded threaded attempt
     *  included. */
    double hostSeconds = 0;
    /** The run passed every correctness check. */
    bool correct = true;
};

/** Committed-latency quantiles in simulated microseconds. */
struct LatencyQuantiles
{
    double p50Us = 0;
    double p99Us = 0;
    std::uint64_t samples = 0;
};

/**
 * Quantile @p q of @p h, interpolated inside its bucket. The histogram
 * answers with a bucket's lower bound, a step function of the samples;
 * this spreads the samples of that bucket evenly across its width (as
 * a Prometheus histogram_quantile does), so the value moves with the
 * samples instead of sticking to a bound.
 */
double interpolatedQuantile(const stats::Histogram &h, double q);

/** Interpolated p50/p99 of a latency histogram kept in Ticks. */
LatencyQuantiles latencyQuantiles(const stats::Histogram &latency);

/** Committed transactions per simulated second of the runs of
 *  @p engine in @p runs, pooled: all their commits over all their
 *  simulated time. */
double simTps(const std::vector<EngineRun> &runs,
              protocol::EngineKind engine);

/** The committed-latency histograms of the runs of @p engine, merged. */
stats::Histogram pooledLatency(const std::vector<EngineRun> &runs,
                               protocol::EngineKind engine);

/** Throughput of an engine over the baseline's (Fig 9); 0 when the
 *  baseline has none. */
double speedup(double engine_tps, double baseline_tps);

/** Numerator and base of the abort rate. */
struct AbortCount
{
    std::uint64_t failed = 0;
    std::uint64_t attempts = 0;
};

/**
 * Failed attempts of one run over its attempts. A shed admission never
 * opens an attempt, so it is added to both: it is an attempt refused.
 * A run that failed a correctness check counts every attempt as failed.
 */
AbortCount abortCount(const EngineRun &run);

/** Sum of abortCount() over @p runs, as a ratio. */
double abortRate(const std::vector<EngineRun> &runs);

/** Median of @p values (mean of the middle two for an even count);
 *  0 for none. */
double median(std::vector<double> values);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace hades::perfbench

#endif // HADES_PERFBENCH_METRICS_HH_
