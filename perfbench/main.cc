/**
 * @file
 * hades_perfbench: the repository benchmark.
 *
 *   hades_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 is the timed pass. It measures set-up time, then runs the
 * workload (Baseline, HADES-H, HADES, one after another) until S host
 * seconds have passed, checks every run, and prints the end-to-end
 * metrics. --trace 1 is the layer pass (layers.hh), which prints the
 * per-layer metrics instead. Either way the last line of standard
 * output is one JSON object; the exit code is 0 only if every
 * correctness check passed. See README.md beside this file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/result_hash.hh"
#include "layers.hh"
#include "metrics.hh"
#include "spec.hh"

namespace hades::perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

/** Seed used when --seed is not given. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Zero-transaction builds per engine behind setup_s. */
constexpr int kSetupTrials = 5;

/** Fig 9 of the paper: HADES and HADES-H throughput over the software
 *  baseline, each an average over its 11 workloads. */
constexpr double kPaperSpeedupHades = 2.7;
constexpr double kPaperSpeedupHadesH = 2.3;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    int trace = 0;
    /** Test hook: expect this many extra commits, so every run fails
     *  its correctness check. */
    std::uint64_t expectExtra = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "hades_perfbench: %s\n"
                 "usage: hades_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--break-check]\n"
                 "workloads:",
                 why.c_str());
    for (const auto &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Parse a whole decimal number, or exit through usage(). */
std::uint64_t
parseCount(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage(flag + " needs a whole number, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--break-check") {
            o.expectExtra = 1;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value after " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = parseCount(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = double(parseCount(flag, value));
        } else if (flag == "--trace") {
            const std::uint64_t t = parseCount(flag, value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = int(t);
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!knownWorkload(o.workload))
        usage("unknown workload '" + o.workload + "'");
    return o;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Host seconds to build the three clusters: each engine's spec run at
 *  zero transactions per context, summed, median over trials. */
double
measureSetup(const Options &o)
{
    std::vector<double> trials;
    for (int t = 0; t < kSetupTrials; ++t) {
        double sum = 0;
        for (auto engine : kEngines) {
            auto spec =
                makeSpec(o.workload, engine, inputSeed(o.seed, 0));
            spec.txnsPerContext = 0;
            const auto t0 = Clock::now();
            const auto res = core::runOne(spec);
            sum += std::chrono::duration<double>(Clock::now() - t0)
                       .count();
            if (res.stats.committed != 0)
                panic("a zero-transaction run committed");
        }
        trials.push_back(sum);
    }
    return median(trials);
}

PassResult
timedPass(const Options &o)
{
    PassResult out;
    const double setup = measureSetup(o);

    // One repetition runs the three engines on one input; the first
    // kInputsPerRun repetitions cover every input once and give the
    // simulated metrics, later ones repeat an input and must reproduce
    // it exactly.
    std::vector<EngineRun> firstPass;
    std::vector<double> rates;
    const auto start = Clock::now();
    for (std::uint32_t rep = 0;
         rep < kInputsPerRun ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             o.seconds;
         ++rep) {
        const std::uint32_t input = rep % kInputsPerRun;
        double host = 0;
        std::uint64_t committed = 0;
        for (std::size_t i = 0; i < kEngines.size(); ++i) {
            const auto spec = makeSpec(o.workload, kEngines[i],
                                       inputSeed(o.seed, input));
            EngineRun run = runChecked(spec, o.expectExtra);
            if (rep >= kInputsPerRun &&
                core::hashResult(run.result) !=
                    core::hashResult(
                        firstPass[input * kEngines.size() + i].result)) {
                std::fprintf(stderr,
                             "perfbench: %s repetition %u diverged "
                             "from the first run of its input\n",
                             engineTag(spec.engine), rep);
                run.correct = false;
            }
            const std::uint64_t want = expectedCommits(spec);
            out.attempted += want;
            out.failed += run.correct ? 0 : want;
            out.correct &= run.correct;
            host += run.hostSeconds;
            committed += run.result.stats.committed;
            if (rep < kInputsPerRun)
                firstPass.push_back(std::move(run));
        }
        rates.push_back(double(committed) /
                        std::max(host - setup, 1e-9));
    }

    using protocol::EngineKind;
    const double base_tps = simTps(firstPass, EngineKind::Baseline);
    const double hyb_tps = simTps(firstPass, EngineKind::HadesHybrid);
    const double hw_tps = simTps(firstPass, EngineKind::Hades);
    const LatencyQuantiles q =
        latencyQuantiles(pooledLatency(firstPass, EngineKind::Hades));

    std::printf("perfbench %s seed=%llu: %zu repetitions over %u "
                "inputs, setup %.3f s\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                rates.size(), kInputsPerRun, setup);
    std::printf("  sim_txn_per_wall_s per repetition:");
    for (double r : rates)
        std::printf(" %.0f", r);
    std::printf("\n");
    for (auto engine : kEngines) {
        std::uint64_t committed = 0;
        int threaded = 0, reruns = 0;
        double host = 0;
        for (const auto &run : firstPass) {
            if (run.engine != engine)
                continue;
            committed += run.result.stats.committed;
            threaded += run.result.shardsThreaded;
            reruns += run.result.serialRerun;
            host += run.hostSeconds;
        }
        std::printf("  %-8s committed=%llu host_s=%.3f sim_tps=%.0f "
                    "threaded_runs=%d serial_reruns=%d; sim_us per "
                    "input:",
                    engineTag(engine), (unsigned long long)committed,
                    host, simTps(firstPass, engine), threaded, reruns);
        for (const auto &run : firstPass)
            if (run.engine == engine)
                std::printf(" %.1f", double(run.result.simTime) /
                                         double(kMicrosecond));
        std::printf("\n");
    }
    std::printf("  hades latency: p50=%.3f us p99=%.3f us over %llu "
                "committed samples\n",
                q.p50Us, q.p99Us, (unsigned long long)q.samples);
    std::printf("  speedup_hades=%.3fx speedup_hades_h=%.3fx "
                "(paper Fig 9: %.1fx / %.1fx, averages over its 11 "
                "workloads)\n",
                speedup(hw_tps, base_tps), speedup(hyb_tps, base_tps),
                kPaperSpeedupHades, kPaperSpeedupHadesH);

    out.metrics = {
        {"sim_txn_per_wall_s", median(rates), "txn/s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_tps", hw_tps, "txn/s"},
        {"sim_p50_us", q.p50Us, "us"},
        {"sim_p99_us", q.p99Us, "us"},
        {"speedup_hades", speedup(hw_tps, base_tps), "x"},
        {"speedup_hades_h", speedup(hyb_tps, base_tps), "x"},
        {"abort_rate", abortRate(firstPass), "ratio"},
    };
    return out;
}

} // namespace
} // namespace hades::perfbench

int
main(int argc, char **argv)
{
    using namespace hades::perfbench;
    const Options o = parseArgs(argc, argv);
    PassResult pass = o.trace ? layerPass(o.workload, o.seed, o.expectExtra)
                              : timedPass(o);
    for (const auto &m : pass.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         m.name.c_str());
            pass.correct = false;
        }
    }
    std::printf("%s\n", resultJson(pass.correct, pass.attempted,
                                   pass.failed, pass.metrics)
                            .c_str());
    std::fflush(stdout);
    return pass.correct ? 0 : 1;
}
