#include "lane.hh"

namespace fx::protocol
{

void
Engine::escapeWrite()
{
    total_ += 1; // EXPECT: lane-escape
}

void
Engine::gatedWrite()
{
    refuseIfThreaded();
    gated_ += 1;
}

void
Engine::shardedWrite(unsigned node)
{
    byNode_[node] += 1;
}

void
Engine::accessorWrite()
{
    st().hits += 1;
}

void
Engine::annotatedWrite()
{
    annotated_ += 1;
}

void
Engine::markedWrite()
{
    // hades-analyze: lane-escape-ok (fixture: site-level suppression)
    sitePass_ += 1;
}

void
fill(std::map<unsigned, std::uint64_t> &out)
{
    out[0] += 1;
}

std::uint64_t
peek(const std::map<unsigned, std::uint64_t> &in)
{
    return in.size();
}

void
Engine::refWrite()
{
    fill(filled_); // EXPECT: lane-escape
}

void
Engine::constRefRead()
{
    (void)peek(peeked_);
}

void
Engine::refMarkedWrite()
{
    // hades-analyze: lane-escape-ok (fixture: write through a reference argument)
    fill(refPass_);
}

void
AnnotatedEngine::anyWrite()
{
    x_ += 1;
}

} // namespace fx::protocol
