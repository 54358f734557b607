/**
 * @file
 * The benchmark's pinned workloads: one RunSpec per (workload, engine,
 * seed), and the correctness checks every run of them must pass.
 */

#ifndef HADES_PERFBENCH_SPEC_HH_
#define HADES_PERFBENCH_SPEC_HH_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hh"
#include "metrics.hh"

namespace hades::perfbench
{

/** The engines every workload runs, in run order. */
inline constexpr std::array<protocol::EngineKind, 3> kEngines = {
    protocol::EngineKind::Baseline,
    protocol::EngineKind::HadesHybrid,
    protocol::EngineKind::Hades,
};

/** Metric-name tag of an engine: "baseline", "hades_h" or "hades". */
const char *engineTag(protocol::EngineKind engine);

/** Inputs one benchmark run covers: run seed s simulates input seeds
 *  s * kInputsPerRun + [0, kInputsPerRun), so the simulated metrics are
 *  pooled over several inputs and two run seeds never share one. */
inline constexpr std::uint32_t kInputsPerRun = 16;

/** Cluster seed of input @p input of run seed @p seed. */
inline std::uint64_t
inputSeed(std::uint64_t seed, std::uint32_t input)
{
    return seed * kInputsPerRun + input;
}

/** Names of the pinned workloads, in the order BENCHMARK.json lists
 *  them. */
const std::vector<std::string> &workloadNames();

/** True if @p name is one of workloadNames(). */
bool knownWorkload(std::string_view name);

/** The pinned spec of @p workload for one engine; @p seed is the only
 *  input that varies between runs. @pre knownWorkload(workload). */
core::RunSpec makeSpec(std::string_view workload,
                       protocol::EngineKind engine, std::uint64_t seed);

/** Transactions a correct run of @p spec commits: every hardware
 *  context finishes its whole stream. */
std::uint64_t expectedCommits(const core::RunSpec &spec);

/**
 * Check one finished run of @p spec. Returns an empty string when the
 * run is correct, else a one-line reason: a lost or extra commit, a
 * run that should have been audited and was not, or a live backup
 * that disagrees with ground truth. @p expect_extra raises the
 * expected commit count, so a test can make a correct run fail.
 */
std::string checkRun(const core::RunSpec &spec,
                     const core::RunResult &res,
                     std::uint64_t expect_extra = 0);

/** Run @p spec once through core::runOne(), timed on the host clock
 *  and checked with checkRun(); a failed check is reported on stderr. */
EngineRun runChecked(const core::RunSpec &spec,
                     std::uint64_t expect_extra = 0);

} // namespace hades::perfbench

#endif // HADES_PERFBENCH_SPEC_HH_
