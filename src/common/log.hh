/**
 * @file
 * Minimal logging and error-exit helpers, following the gem5 convention:
 * panic() for internal invariant violations (simulator bugs), fatal() for
 * user/configuration errors.
 */

#ifndef HADES_COMMON_LOG_HH_
#define HADES_COMMON_LOG_HH_

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace hades
{

/** What panic() threw when throw-mode is on (see setPanicThrows). */
struct PanicError : std::runtime_error
{
    explicit PanicError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail
{
/** Process-wide panic mode flag. Written once before worker threads
 *  start (the chaos fuzzer sets it up front), read on the cold panic
 *  path only. */
inline bool &
panicThrowsFlag()
{
    static bool flag = false;
    return flag;
}
} // namespace detail

/**
 * Select panic() behavior: abort (default; a violated invariant is a
 * simulator bug and the core dump is the artifact) or throw PanicError
 * (the chaos fuzzer's mode: a violation inside one runMany() slot is
 * caught by the sweep's per-slot exception barrier and reported as a
 * failed outcome, so the campaign can shrink it instead of dying).
 * Call it before any worker thread exists.
 */
inline void
setPanicThrows(bool throws)
{
    detail::panicThrowsFlag() = throws;
}

/** Abort (or throw PanicError in throw-mode): a condition that
 *  indicates a bug in the simulator itself. Never returns normally. */
[[noreturn]] inline void
panic(const char *msg)
{
    if (detail::panicThrowsFlag())
        throw PanicError(std::string("panic: ") + msg);
    std::fprintf(stderr, "panic: %s\n", msg);
    std::abort();
}

/** Exit(1): the simulation cannot continue due to a user error. */
[[noreturn]] inline void
fatal(const char *msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg);
    std::exit(1);
}

/** Assert-like check that survives NDEBUG builds. */
inline void
always_assert(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace hades

#endif // HADES_COMMON_LOG_HH_
