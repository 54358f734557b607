// Lane-escape (A1) fixture: one class exercising every classification
// the pass knows, plus a fully class-annotated one.
#pragma once

#include <cstdint>
#include <map>

namespace fx::protocol
{

struct Stats
{
    std::uint64_t hits = 0;
};

class Engine
{
  public:
    void escapeWrite();             // expect: lane-escape finding
    void gatedWrite();              // gate-covered: clean
    void shardedWrite(unsigned node); // per-node subscript: clean
    void accessorWrite();           // per-node accessor: clean
    void annotatedWrite();          // field-level marker: clean
    void markedWrite();             // site-level marker: clean
    void refWrite();                // expect: lane-escape finding
    void constRefRead();            // const reference argument: clean
    void refMarkedWrite();          // site-level marker: clean

  private:
    Stats &st();
    void refuseIfThreaded() const;

    std::uint64_t total_ = 0;
    std::uint64_t gated_ = 0;
    std::uint64_t annotated_ = 0; // hades-analyze: lane-escape-ok (fixture: field-level annotation)
    std::uint64_t sitePass_ = 0;
    std::map<unsigned, std::uint64_t> byNode_;
    std::map<unsigned, std::uint64_t> filled_;
    std::map<unsigned, std::uint64_t> peeked_;
    std::map<unsigned, std::uint64_t> refPass_;
};

/** Fill @p out in place: a caller's field passed here is written. */
void fill(std::map<unsigned, std::uint64_t> &out);
/** Read @p in only. */
std::uint64_t peek(const std::map<unsigned, std::uint64_t> &in);

// hades-analyze: lane-escape-ok (fixture: class-level annotation)
class AnnotatedEngine
{
  public:
    void anyWrite();                // class-level marker: clean

  private:
    std::uint64_t x_ = 0;
};

} // namespace fx::protocol
