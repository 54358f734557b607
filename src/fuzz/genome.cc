#include "fuzz/genome.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.hh"

namespace hades::fuzz
{

namespace
{

// Decode-time safety clamps. Probabilities stay well below 1 so every
// retry loop makes progress; windows stay inside the scenario horizon
// so partitions always heal and paused nodes always resume.
constexpr double kMaxLossyProb = 0.35; // drop / delay / corrupt
constexpr double kMaxDupProb = 0.5;
constexpr double kMaxStallProb = 0.2;
constexpr Tick kMinEventAt = us(2);
constexpr Tick kHorizon = us(150);
constexpr Tick kMaxWindow = us(40);
constexpr std::uint32_t kMaxCrashVictims = 2;
constexpr std::uint32_t kMaxDropFirst = 4;
// Grey-gene slowdown factor steps: count 1..4 -> x2..x5. Overlapping
// events stack additively in greyExtraDelay, so the worst case stays
// bounded by maxEvents * 4 * the healthy one-way latency.
constexpr std::uint32_t kMaxGreyFactorSteps = 4;

double
clampProb(double p, double cap)
{
    return std::clamp(p, 0.0, cap);
}

Tick
clampAt(Tick at)
{
    return std::clamp<Tick>(at, kMinEventAt, kHorizon);
}

Tick
clampUntil(Tick at, Tick until)
{
    return std::clamp<Tick>(until, at + us(1),
                            std::min<Tick>(at + kMaxWindow, kHorizon + kMaxWindow));
}

} // namespace

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::DropVerb:
        return "drop_verb";
      case EventKind::DupVerb:
        return "dup_verb";
      case EventKind::DelayVerb:
        return "delay_verb";
      case EventKind::CorruptVerb:
        return "corrupt_verb";
      case EventKind::NicStall:
        return "nic_stall";
      case EventKind::DropFirst:
        return "drop_first";
      case EventKind::Partition:
        return "partition";
      case EventKind::PauseNode:
        return "pause_node";
      case EventKind::CrashForever:
        return "crash_forever";
      case EventKind::JoinNode:
        return "join_node";
      case EventKind::DrainNode:
        return "drain_node";
      case EventKind::SlowNic:
        return "slow_nic";
      case EventKind::SlowLink:
        return "slow_link";
      case EventKind::ShedStorm:
        return "shed_storm";
      case EventKind::NumKinds:
        break;
    }
    return "unknown";
}

bool
eventKindFromName(const std::string &name, EventKind &out)
{
    for (std::uint8_t k = 0; k < std::uint8_t(EventKind::NumKinds); ++k) {
        if (name == eventKindName(EventKind(k))) {
            out = EventKind(k);
            return true;
        }
    }
    return false;
}

Genome
randomGenome(std::uint64_t seed, const GenomeLimits &lim)
{
    // Genomes are a pure function of the seed; the decode clamps make
    // any draw a safe scenario, so generation needs no rejection loop.
    Rng rng(seed ^ 0xfa22ed5eedULL);
    Genome g;
    g.seed = seed;
    g.nodes = 5 + std::uint32_t(rng.below(2));
    g.txnsPerContext = 4 + std::uint32_t(rng.below(5));
    g.shards = 1u << rng.below(4); // 1, 2, 4, or 8 kernel lanes
    const std::uint32_t n =
        1 + std::uint32_t(rng.below(std::max<std::uint32_t>(lim.maxEvents, 1)));
    for (std::uint32_t i = 0; i < n; ++i) {
        FuzzEvent e;
        e.kind = EventKind(rng.below(std::uint64_t(EventKind::NumKinds)));
        e.verb = std::uint32_t(rng.below(FaultConfig::kNumVerbs));
        e.prob = rng.uniform() * kMaxLossyProb;
        e.a = std::uint32_t(rng.below(g.nodes));
        e.b = std::uint32_t(rng.below(g.nodes));
        e.at = us(2 + std::int64_t(rng.below(80)));
        e.until = e.at + us(1 + std::int64_t(rng.below(40)));
        e.symmetric = rng.below(2) == 0;
        e.count = 1 + std::uint32_t(rng.below(kMaxDropFirst));
        g.events.push_back(e);
    }
    // Drawn last so the gene never perturbs the fields above for a
    // given seed (legacy repro artifacts stay meaningful).
    g.threadedMessaging = rng.below(4) == 0;
    return g;
}

void
applyEvents(const Genome &g, ClusterConfig &cc)
{
    FaultConfig &f = cc.faults;
    const std::uint32_t nodes = cc.numNodes;
    std::vector<NodeId> victims;
    // Membership genes decode canonically so the result is independent
    // of event order and survives any ddmin subset: all JoinNode genes
    // collapse to one join of node `nodes - 1` (held out as the spare)
    // at the earliest clamped instant; all DrainNode genes collapse to
    // one drain of node 1. Fixed victims keep every decode safe: with
    // >= 4 nodes, at most two distinct crash victims and at most one
    // drain, a live non-draining migration destination always exists
    // (or arrives when the join admits), and node 0 -- the initial CM
    // primary -- is never the drain victim.
    bool join = false, drain = false;
    Tick joinAt = kHorizon, drainAt = kHorizon;
    for (const FuzzEvent &e : g.events) {
        const std::size_t verb = e.verb % FaultConfig::kNumVerbs;
        switch (e.kind) {
          case EventKind::DropVerb:
            // max() keeps the decode order-independent when several
            // events target the same verb, so removing any subset of
            // events (shrinking) still decodes the survivors the same.
            f.dropProb[verb] = std::max(f.dropProb[verb],
                                        clampProb(e.prob, kMaxLossyProb));
            break;
          case EventKind::DupVerb:
            f.dupProb[verb] = std::max(f.dupProb[verb],
                                       clampProb(e.prob, kMaxDupProb));
            break;
          case EventKind::DelayVerb:
            f.delayProb[verb] = std::max(f.delayProb[verb],
                                         clampProb(e.prob, kMaxLossyProb));
            break;
          case EventKind::CorruptVerb:
            f.corruptProb[verb] = std::max(f.corruptProb[verb],
                                           clampProb(e.prob, kMaxLossyProb));
            break;
          case EventKind::NicStall:
            f.nicStallProb = std::max(f.nicStallProb,
                                      clampProb(e.prob, kMaxStallProb));
            break;
          case EventKind::DropFirst:
            f.dropFirst[verb] = std::max(f.dropFirst[verb],
                                         std::min(e.count, kMaxDropFirst));
            break;
          case EventKind::Partition: {
            const NodeId a = NodeId(e.a % nodes);
            const NodeId b = NodeId(e.b % nodes);
            const Tick at = clampAt(e.at);
            const Tick until = clampUntil(at, e.until);
            if (a == b) {
                f.partitions.push_back(
                    FaultConfig::PartitionWindow::isolate(a, nodes, at,
                                                          until));
            } else {
                FaultConfig::PartitionWindow w;
                w.edges.emplace_back(a, b);
                w.at = at;
                w.until = until;
                w.symmetric = e.symmetric;
                f.partitions.push_back(w);
            }
            break;
          }
          case EventKind::PauseNode: {
            FaultConfig::NodeEvent ev;
            ev.node = NodeId(e.a % nodes);
            ev.at = clampAt(e.at);
            ev.until = clampUntil(ev.at, e.until);
            f.nodeEvents.push_back(ev);
            break;
          }
          case EventKind::CrashForever: {
            const NodeId victim = NodeId(e.a % nodes);
            const bool known =
                std::find(victims.begin(), victims.end(), victim) !=
                victims.end();
            if (!known && victims.size() >= kMaxCrashVictims)
                break; // too many distinct victims: gene is inert
            if (!known)
                victims.push_back(victim);
            FaultConfig::NodeEvent ev;
            ev.node = victim;
            ev.at = clampAt(e.at);
            ev.crash = true;
            ev.forever = true;
            f.nodeEvents.push_back(ev);
            break;
          }
          case EventKind::JoinNode:
            join = true;
            joinAt = std::min(joinAt, clampAt(e.at));
            break;
          case EventKind::DrainNode:
            drain = true;
            drainAt = std::min(drainAt, clampAt(e.at));
            break;
          case EventKind::SlowNic:
          case EventKind::SlowLink: {
            FaultConfig::GreyEvent ge;
            const NodeId a = NodeId(e.a % nodes);
            const NodeId b = NodeId(e.b % nodes);
            if (e.kind == EventKind::SlowLink && a != b) {
                ge.kind = FaultConfig::GreyEvent::Kind::SlowLink;
                ge.node = a;
                ge.dst = b;
                ge.symmetric = e.symmetric;
            } else {
                // A degenerate self-link decodes as a NIC slowdown so
                // the gene is never inert.
                ge.kind = FaultConfig::GreyEvent::Kind::SlowNic;
                ge.node = a;
            }
            ge.factorPct =
                100 + 100 * std::clamp<std::uint32_t>(
                                e.count, 1, kMaxGreyFactorSteps);
            ge.at = clampAt(e.at);
            ge.until = clampUntil(ge.at, e.until);
            f.greyEvents.push_back(ge);
            // Grey genes also arm the mitigation under test: the SLO
            // tracker + hedged remote reads (the campaign spec always
            // has replicas to hedge to).
            cc.slo.enabled = true;
            break;
          }
          case EventKind::ShedStorm:
            // Idempotent flag decode: any number of ShedStorm genes
            // arm the same tight overload-protection config, so every
            // ddmin subset decodes the survivors identically.
            cc.admission.enabled = true;
            cc.admission.bucketCap = 4;
            cc.admission.refillTokens = 2;
            cc.admission.refillInterval = us(2);
            cc.admission.maxInFlight = 3;
            cc.admission.retryBudgetPct = 50;
            break;
          case EventKind::NumKinds:
            break;
        }
    }
    if (nodes >= 4) { // below the fuzzer's node floor the genes are inert
        if (join) {
            cc.membership.initialMembers = nodes - 1;
            cc.membership.joins.push_back({NodeId(nodes - 1), joinAt});
        }
        if (drain)
            cc.membership.drains.push_back({NodeId(1), drainAt});
    }
    f.enabled = true;
    cc.recovery.enabled = true;
    cc.recovery.testSkipImageResync = g.bugHook;
}

namespace
{

/** The cluster shape and workload shared by both scenario families. */
core::RunSpec
baseSpecFor(const Genome &g, protocol::EngineKind engine, bool smoke)
{
    core::RunSpec spec;
    ClusterConfig &cc = spec.cluster;
    cc.numNodes = std::max<std::uint32_t>(g.nodes, 4);
    cc.coresPerNode = 2;
    cc.slotsPerCore = 2;
    cc.seed = 42 ^ (g.seed * 0x9e3779b97f4a7c15ULL);
    spec.engine = engine;
    spec.mix = {{workload::AppKind::Smallbank, kvs::StoreKind::HashTable}};
    spec.txnsPerContext =
        smoke ? std::min<std::uint64_t>(g.txnsPerContext, 3)
              : g.txnsPerContext;
    spec.scaleKeys = 2000;
    return spec;
}

} // namespace

core::RunSpec
specFor(const Genome &g, protocol::EngineKind engine, bool smoke)
{
    core::RunSpec spec = baseSpecFor(g, engine, smoke);
    ClusterConfig &cc = spec.cluster;
    cc.faults.seed = 0x0ddfa117 ^ g.seed;
    // Fast-recovery tuning so smoke genomes finish quickly.
    cc.tuning.retryTimeoutBase = us(4);
    cc.tuning.retryTimeoutCap = us(32);
    cc.tuning.maxCommitResends = 6;
    cc.tuning.leaseInterval = us(10);
    cc.tuning.leaseTimeout = us(25);
    applyEvents(g, cc);
    spec.replication.degree = 2;
    spec.audit = true;
    spec.shards = std::max<std::uint32_t>(g.shards, 1);
    return spec;
}

core::RunSpec
threadedSpecFor(const Genome &g, protocol::EngineKind engine, bool smoke)
{
    core::RunSpec spec = baseSpecFor(g, engine, smoke);
    // The fault events are deliberately not decoded: worker threads
    // only run fault-free, and keeping the spec thread-certifiable is
    // the point of the gene. Lock-mode stays out of reach so the
    // optimistic threaded path is what actually gets fuzzed (the
    // runtime lock-mode rerun has its own coverage in the test suite).
    spec.cluster.tuning.maxSquashesBeforeLockMode = 10000;
    spec.audit = false;
    spec.shards = std::max<std::uint32_t>(g.shards, 2);
    return spec;
}

// ---- JSON serialization -----------------------------------------------------

namespace
{

void
jsonU64(std::string &out, const char *name, std::uint64_t v, bool first = false)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",",
                  name, v);
    out += buf;
}

void
jsonI64(std::string &out, const char *name, std::int64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRId64, name, v);
    out += buf;
}

void
jsonD(std::string &out, const char *name, double v)
{
    // %.17g round-trips IEEE doubles, so replay decodes the exact
    // probabilities the campaign ran.
    char buf[128];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", name, v);
    out += buf;
}

void
jsonB(std::string &out, const char *name, bool v)
{
    out += ",\"";
    out += name;
    out += "\":";
    out += v ? "true" : "false";
}

void
jsonS(std::string &out, const char *name, const std::string &v,
      bool first = false)
{
    if (!first)
        out += ',';
    out += '"';
    out += name;
    out += "\":\"";
    for (char c : v) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    out += '"';
}

} // namespace

std::string
genomeJson(const Genome &g, const std::string &note)
{
    std::string out = "{";
    jsonS(out, "schema", "hades-fuzz-repro-v1", true);
    if (!note.empty())
        jsonS(out, "note", note);
    jsonU64(out, "seed", g.seed);
    jsonU64(out, "nodes", g.nodes);
    jsonU64(out, "txns_per_context", g.txnsPerContext);
    jsonU64(out, "shards", g.shards);
    jsonB(out, "bug_hook", g.bugHook);
    jsonB(out, "threaded_messaging", g.threadedMessaging);
    out += ",\"events\":[";
    for (std::size_t i = 0; i < g.events.size(); ++i) {
        const FuzzEvent &e = g.events[i];
        if (i)
            out += ',';
        std::string ev = "{";
        jsonS(ev, "kind", eventKindName(e.kind), true);
        jsonU64(ev, "verb", e.verb);
        jsonD(ev, "prob", e.prob);
        jsonU64(ev, "a", e.a);
        jsonU64(ev, "b", e.b);
        jsonI64(ev, "at_ps", e.at);
        jsonI64(ev, "until_ps", e.until);
        jsonB(ev, "symmetric", e.symmetric);
        jsonU64(ev, "count", e.count);
        ev += '}';
        out += ev;
    }
    out += "]}\n";
    return out;
}

// ---- JSON parsing -----------------------------------------------------------

namespace
{

/** Minimal recursive-descent scanner for the repro subset of JSON
 *  (objects, arrays, strings without escapes beyond \" and \\, numbers,
 *  booleans). Unknown values are skipped so annotated artifacts parse. */
class Scanner
{
  public:
    explicit Scanner(const std::string &text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    void
    skipWs()
    {
        while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                             *p_ == '\r'))
            ++p_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (p_ < end_ && *p_ == c) {
            ++p_;
            return true;
        }
        return false;
    }

    bool
    peek(char c)
    {
        skipWs();
        return p_ < end_ && *p_ == c;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (p_ < end_ && *p_ != '"') {
            if (*p_ == '\\' && p_ + 1 < end_)
                ++p_;
            out += *p_++;
        }
        return p_ < end_ && *p_++ == '"';
    }

    /** Raw number token; caller converts with strtoull/strtoll/strtod. */
    bool
    parseNumber(std::string &out)
    {
        skipWs();
        out.clear();
        while (p_ < end_ &&
               (std::strchr("+-.eE0123456789", *p_) != nullptr))
            out += *p_++;
        return !out.empty();
    }

    bool
    parseBool(bool &out)
    {
        skipWs();
        if (end_ - p_ >= 4 && std::strncmp(p_, "true", 4) == 0) {
            p_ += 4;
            out = true;
            return true;
        }
        if (end_ - p_ >= 5 && std::strncmp(p_, "false", 5) == 0) {
            p_ += 5;
            out = false;
            return true;
        }
        return false;
    }

    /** Skip any value (for unknown keys). */
    bool
    skipValue()
    {
        skipWs();
        if (p_ >= end_)
            return false;
        if (*p_ == '"') {
            std::string s;
            return parseString(s);
        }
        if (*p_ == '{' || *p_ == '[') {
            const char open = *p_;
            const char close = open == '{' ? '}' : ']';
            ++p_;
            skipWs();
            if (consume(close))
                return true;
            do {
                if (open == '{') {
                    std::string key;
                    if (!parseString(key) || !consume(':'))
                        return false;
                }
                if (!skipValue())
                    return false;
            } while (consume(','));
            return consume(close);
        }
        bool b;
        if (*p_ == 't' || *p_ == 'f')
            return parseBool(b);
        std::string num;
        return parseNumber(num);
    }

  private:
    const char *p_;
    const char *end_;
};

bool
numU64(Scanner &sc, std::uint64_t &out)
{
    std::string tok;
    if (!sc.parseNumber(tok))
        return false;
    out = std::strtoull(tok.c_str(), nullptr, 10);
    return true;
}

bool
numI64(Scanner &sc, std::int64_t &out)
{
    std::string tok;
    if (!sc.parseNumber(tok))
        return false;
    out = std::strtoll(tok.c_str(), nullptr, 10);
    return true;
}

bool
numD(Scanner &sc, double &out)
{
    std::string tok;
    if (!sc.parseNumber(tok))
        return false;
    out = std::strtod(tok.c_str(), nullptr);
    return true;
}

bool
parseEvent(Scanner &sc, FuzzEvent &e, std::string &err)
{
    if (!sc.consume('{')) {
        err = "event: expected object";
        return false;
    }
    if (sc.consume('}'))
        return true;
    do {
        std::string key;
        if (!sc.parseString(key) || !sc.consume(':')) {
            err = "event: malformed key";
            return false;
        }
        bool ok = true;
        std::uint64_t u = 0;
        std::int64_t i = 0;
        if (key == "kind") {
            std::string name;
            ok = sc.parseString(name) && eventKindFromName(name, e.kind);
            if (!ok)
                err = "event: unknown kind \"" + name + "\"";
        } else if (key == "verb") {
            ok = numU64(sc, u);
            e.verb = std::uint32_t(u);
        } else if (key == "prob") {
            ok = numD(sc, e.prob);
        } else if (key == "a") {
            ok = numU64(sc, u);
            e.a = std::uint32_t(u);
        } else if (key == "b") {
            ok = numU64(sc, u);
            e.b = std::uint32_t(u);
        } else if (key == "at_ps") {
            ok = numI64(sc, i);
            e.at = Tick(i);
        } else if (key == "until_ps") {
            ok = numI64(sc, i);
            e.until = Tick(i);
        } else if (key == "symmetric") {
            ok = sc.parseBool(e.symmetric);
        } else if (key == "count") {
            ok = numU64(sc, u);
            e.count = std::uint32_t(u);
        } else {
            ok = sc.skipValue();
        }
        if (!ok) {
            if (err.empty())
                err = "event: bad value for \"" + key + "\"";
            return false;
        }
    } while (sc.consume(','));
    if (!sc.consume('}')) {
        err = "event: expected }";
        return false;
    }
    return true;
}

} // namespace

bool
parseGenomeJson(const std::string &text, Genome &out, std::string &err)
{
    Scanner sc(text);
    out = Genome{};
    out.events.clear();
    err.clear();
    if (!sc.consume('{')) {
        err = "expected top-level object";
        return false;
    }
    if (sc.consume('}'))
        return true;
    do {
        std::string key;
        if (!sc.parseString(key) || !sc.consume(':')) {
            err = "malformed key";
            return false;
        }
        bool ok = true;
        std::uint64_t u = 0;
        if (key == "schema") {
            std::string schema;
            ok = sc.parseString(schema);
            if (ok && schema != "hades-fuzz-repro-v1") {
                err = "unsupported schema \"" + schema + "\"";
                return false;
            }
        } else if (key == "seed") {
            ok = numU64(sc, out.seed);
        } else if (key == "nodes") {
            ok = numU64(sc, u);
            out.nodes = std::uint32_t(u);
        } else if (key == "txns_per_context") {
            ok = numU64(sc, u);
            out.txnsPerContext = std::uint32_t(u);
        } else if (key == "shards") {
            ok = numU64(sc, u);
            out.shards = std::uint32_t(u);
        } else if (key == "bug_hook") {
            ok = sc.parseBool(out.bugHook);
        } else if (key == "threaded_messaging") {
            ok = sc.parseBool(out.threadedMessaging);
        } else if (key == "events") {
            ok = sc.consume('[');
            if (ok && !sc.consume(']')) {
                do {
                    FuzzEvent e;
                    if (!parseEvent(sc, e, err))
                        return false;
                    out.events.push_back(e);
                } while (sc.consume(','));
                ok = sc.consume(']');
            }
        } else {
            ok = sc.skipValue();
        }
        if (!ok) {
            if (err.empty())
                err = "bad value for \"" + key + "\"";
            return false;
        }
    } while (sc.consume(','));
    if (!sc.consume('}')) {
        err = "expected closing }";
        return false;
    }
    return true;
}

} // namespace hades::fuzz
