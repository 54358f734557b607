// Fixture for the determinism line patterns: each rule has a flagged
// line, a line suppressed by a `det-lint:` marker, a line suppressed
// by a hades-analyze marker, and a mention inside a comment that must
// stay quiet (std::rand(), std::chrono::steady_clock, pthread_self()).

#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

namespace fx::workload
{

int
draw()
{
    return std::rand(); // EXPECT: randomness
}

unsigned
seedFromDevice()
{
    std::random_device dev; // det-lint: seeds a throwaway fixture value
    // hades-analyze: randomness-ok (fixture: never reaches a simulation)
    std::mt19937 gen(dev());
    return unsigned(gen());
}

long
hostNanos()
{
    auto t = std::chrono::steady_clock::now(); // EXPECT: wall-clock
    // det-lint: reported, never decides
    auto u = std::chrono::system_clock::now();
    // hades-analyze: wall-clock-ok (fixture: report-only timestamp)
    auto v = std::chrono::high_resolution_clock::now();
    return long((t - t).count() + (u - u).count() + (v - v).count());
}

unsigned long
threadKey()
{
    auto id = std::this_thread::get_id(); // EXPECT: thread-identity
    unsigned long self = (unsigned long)pthread_self(); // det-lint: log
    // hades-analyze: thread-identity-ok (fixture: diagnostic only)
    std::thread::id other{};
    return self + (id == other ? 1 : 0);
}

double
smooth(double sample)
{
    double ewmaRtt = 0; // EXPECT: float-control
    int admissionTokens = 0;
    admissionTokens += 1.5; // EXPECT: float-control
    // det-lint: reporting sum, feeds no decision
    double sloReport = sample;
    // hades-analyze: float-control-ok (fixture: output metric)
    double healthScore = sample;
    double meanLatency = sample; // not control state: clean
    return ewmaRtt + admissionTokens + sloReport + healthScore +
           meanLatency;
}

} // namespace fx::workload
