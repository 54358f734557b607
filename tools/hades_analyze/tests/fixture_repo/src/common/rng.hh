// Fixture: the allowlisted home of the seeded generator may name the
// standard engines (randomness), but nothing else is excused.

#include <chrono>
#include <random>

namespace fx
{

struct Rng
{
    std::mt19937_64 engine;
    long
    stamp() const
    {
        auto t = std::chrono::steady_clock::now(); // EXPECT: wall-clock
        return long(t.time_since_epoch().count());
    }
};

} // namespace fx
