// Fixture: the allowlisted home of the time conversions (wall-clock).

#include <chrono>

namespace fx
{

inline long
hostMicros()
{
    auto t = std::chrono::steady_clock::now();
    return long(t.time_since_epoch().count());
}

} // namespace fx
