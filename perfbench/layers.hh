/**
 * @file
 * The layer pass: one run of each engine for the simulated per-layer
 * counts, the shards-1 oracle cross-check, and host-time
 * microbenchmarks of each module's public functions on inputs drawn
 * from the workload's own generator and seed.
 */

#ifndef HADES_PERFBENCH_LAYERS_HH_
#define HADES_PERFBENCH_LAYERS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hh"

namespace hades::perfbench
{

/** Outcome of one pass over a workload. */
struct PassResult
{
    std::vector<Metric> metrics;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Run the layer pass of @p workload with inputs from @p seed;
 *  @p expect_extra is handed to runChecked(). */
PassResult layerPass(const std::string &workload, std::uint64_t seed,
                     std::uint64_t expect_extra);

} // namespace hades::perfbench

#endif // HADES_PERFBENCH_LAYERS_HH_
