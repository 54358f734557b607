/**
 * @file
 * Shared sweep front-end for every figure/bench binary and the CLI.
 *
 * All experiment drivers register their (key, RunSpec) pairs here, run
 * the whole set through core::runMany() in one parallel pass, and read
 * results back by key. The helper also owns the command-line flags the
 * drivers share:
 *
 *   --jobs N       worker threads for the sweep (0 = all hardware
 *                  threads; results are identical for any N)
 *   --smoke        shrink every spec to a seconds-scale smoke run
 *                  (tiny txn/scale counts, narrow cluster) so ctest can
 *                  keep the figure pipelines from rotting
 *   --json PATH    write a machine-readable hades-sweep-v1 report of
 *                  every run (spec echo + full RunResult)
 *
 * Intentionally benchmark-library-free so examples/hades_sim_cli links
 * it without google-benchmark.
 */

#ifndef HADES_BENCH_SWEEP_HH_
#define HADES_BENCH_SWEEP_HH_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/result_json.hh"
#include "core/sweep.hh"

namespace hades::bench
{

/** Registry + parallel executor + result cache for one binary. */
class Sweep
{
  public:
    /**
     * Parse and strip the shared sweep flags from argv, leaving every
     * other argument (e.g. google-benchmark's --benchmark_*) in place.
     * Call before benchmark::Initialize().
     */
    void
    parseArgs(int *argc, char **argv)
    {
        int out = 1;
        for (int i = 1; i < *argc; ++i) {
            std::string opt = argv[i];
            auto value = [&](const char *missing) -> std::string {
                if (i + 1 >= *argc)
                    fatal(missing);
                return argv[++i];
            };
            if (opt == "--jobs") {
                jobs_ = static_cast<unsigned>(
                    std::atoi(value("--jobs needs a thread count N").c_str()));
            } else if (opt == "--smoke") {
                smoke_ = true;
            } else if (opt == "--json") {
                jsonPath_ = value("--json needs a PATH");
            } else {
                argv[out++] = argv[i];
            }
        }
        *argc = out;
        argv[out] = nullptr;
    }

    bool smoke() const { return smoke_; }
    unsigned jobs() const { return jobs_; }

    /** Shrink a spec to smoke scale: tiny txn/key counts and a narrow
     *  cluster, sized so a whole figure sweep stays in ctest budget. */
    static core::RunSpec
    applySmoke(core::RunSpec spec)
    {
        spec.txnsPerContext = std::min<std::uint64_t>(
            spec.txnsPerContext, 8);
        spec.scaleKeys = std::min<std::uint64_t>(spec.scaleKeys, 4000);
        spec.cluster.coresPerNode =
            std::min(spec.cluster.coresPerNode, 2u);
        spec.cluster.slotsPerCore =
            std::min(spec.cluster.slotsPerCore, 2u);
        return spec;
    }

    /**
     * Register one run under a stable key (idempotent). In smoke mode
     * the spec is shrunk on registration, so every later get() with
     * the same key observes the smoke result.
     */
    void
    add(const std::string &key, const core::RunSpec &spec)
    {
        if (indexByKey_.count(key))
            return;
        indexByKey_.emplace(key, keys_.size());
        keys_.push_back(key);
        specs_.push_back(smoke_ ? applySmoke(spec) : spec);
        outcomes_.emplace_back();
    }

    /** Run every registered-but-unrun spec through core::runMany. */
    void
    runAll()
    {
        std::vector<std::size_t> pending;
        std::vector<core::RunSpec> batch;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            if (ran_.size() <= i)
                ran_.resize(specs_.size(), false);
            if (!ran_[i]) {
                pending.push_back(i);
                batch.push_back(specs_[i]);
            }
        }
        if (batch.empty())
            return;
        core::SweepOptions opts;
        opts.jobs = jobs_;
        std::vector<core::RunOutcome> res = core::runMany(batch, opts);
        for (std::size_t b = 0; b < pending.size(); ++b) {
            const std::size_t i = pending[b];
            outcomes_[i] = std::move(res[b]);
            outcomes_[i].index = i;
            ran_[i] = true;
        }
    }

    /**
     * Result lookup by key. Registers and runs the spec on a miss (a
     * serial fallback, so partially-wired binaries stay correct). A
     * failed run is fatal: a figure built from a half-run sweep would
     * silently report garbage.
     */
    const core::RunResult &
    get(const std::string &key, const core::RunSpec &spec)
    {
        auto it = indexByKey_.find(key);
        if (it == indexByKey_.end()) {
            add(key, spec);
            runAll();
            it = indexByKey_.find(key);
        }
        const std::size_t i = it->second;
        if (ran_.size() <= i || !ran_[i])
            runAll();
        const core::RunOutcome &o = outcomes_[i];
        if (!o.ok) {
            std::fprintf(stderr, "sweep run '%s' failed: %s\n",
                         key.c_str(), o.error.c_str());
            fatal("sweep run failed");
        }
        return o.result;
    }

    /** Write the JSON report if --json was requested. Call once after
     *  the summaries are printed. */
    void
    finish(const std::string &tool)
    {
        if (jsonPath_.empty())
            return;
        runAll();
        std::vector<core::JsonRun> runs;
        runs.reserve(keys_.size());
        for (std::size_t i = 0; i < keys_.size(); ++i)
            runs.push_back(
                core::JsonRun{keys_[i], &specs_[i], &outcomes_[i]});
        core::writeJsonFile(
            jsonPath_, core::sweepReportJson(tool, jobs_, smoke_, runs));
    }

    /** Per-binary singleton shared by benchmark cases and summaries. */
    static Sweep &
    instance()
    {
        static Sweep sweep;
        return sweep;
    }

  private:
    std::vector<std::string> keys_;       //!< insertion order
    std::map<std::string, std::size_t> indexByKey_;
    std::vector<core::RunSpec> specs_;    //!< post-smoke specs
    std::vector<core::RunOutcome> outcomes_;
    std::vector<bool> ran_;
    unsigned jobs_ = 1;
    bool smoke_ = false;
    std::string jsonPath_;
};

} // namespace hades::bench

#endif // HADES_BENCH_SWEEP_HH_
