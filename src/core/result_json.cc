#include "core/result_json.hh"

#include <cinttypes>
#include <cstdio>
#include <type_traits>

#include "common/log.hh"

namespace hades::core
{

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** The comma before a member, unless it opens its object. */
void
sep(std::string &out)
{
    if (out.back() != '{')
        out += ',';
}

void
field(std::string &out, const char *name, std::uint64_t v)
{
    char buf[96];
    sep(out);
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, name, v);
    out += buf;
}

void
fieldI(std::string &out, const char *name, std::int64_t v)
{
    char buf[96];
    sep(out);
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, name, v);
    out += buf;
}

void
fieldD(std::string &out, const char *name, double v)
{
    // %.17g round-trips IEEE doubles, so "bit-identical results" is a
    // claim consumers can check on the JSON alone.
    char buf[128];
    sep(out);
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", name, v);
    out += buf;
}

void
fieldS(std::string &out, const char *name, const std::string &v)
{
    sep(out);
    out += '"';
    out += name;
    out += "\":";
    appendEscaped(out, v);
}

void
fieldB(std::string &out, const char *name, bool v)
{
    sep(out);
    out += '"';
    out += name;
    out += "\":";
    out += v ? "true" : "false";
}

} // namespace

std::string
runSpecJson(const RunSpec &spec)
{
    const ClusterConfig &cc = spec.cluster;
    std::string out = "{";
    fieldS(out, "engine", protocol::engineKindName(spec.engine));
    out += ",\"mix\":[";
    for (std::size_t i = 0; i < spec.mix.size(); ++i) {
        if (i)
            out += ',';
        std::string e = "{";
        fieldS(e, "app", workload::appKindName(spec.mix[i].app));
        fieldS(e, "store", kvs::storeKindName(spec.mix[i].store));
        e += '}';
        out += e;
    }
    out += ']';
    field(out, "txns_per_context", spec.txnsPerContext);
    field(out, "scale_keys", spec.scaleKeys);
    field(out, "nodes", cc.numNodes);
    field(out, "cores_per_node", cc.coresPerNode);
    field(out, "slots_per_core", cc.slotsPerCore);
    field(out, "seed", cc.seed);
    fieldI(out, "net_round_trip_ps", cc.netRoundTrip);
    fieldD(out, "forced_local_fraction", cc.forcedLocalFraction);
    field(out, "record_payload_bytes", cc.recordPayloadBytes);
    field(out, "replication_degree", spec.replication.degree);
    fieldB(out, "faults_enabled", cc.faults.enabled);
    fieldB(out, "recovery_enabled", cc.recovery.enabled);
    field(out, "grey_events", cc.faults.greyEvents.size());
    fieldB(out, "slo_enabled", cc.slo.enabled);
    if (cc.slo.enabled) {
        fieldB(out, "slo_hedge_reads", cc.slo.hedgeReads);
        fieldB(out, "slo_quarantine", cc.slo.quarantine);
    }
    fieldB(out, "admission_enabled", cc.admission.enabled);
    if (cc.membership.enabled()) {
        field(out, "initial_members",
              cc.membership.initialOwners(cc.numNodes));
        field(out, "migrate_batch_records",
              cc.membership.migrateBatchRecords);
        fieldI(out, "migrate_batch_interval_ps",
               cc.membership.migrateBatchInterval);
        out += ",\"joins\":[";
        for (std::size_t i = 0; i < cc.membership.joins.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"node\":%u,\"at_ps\":%" PRId64 "}",
                          i ? "," : "", cc.membership.joins[i].node,
                          std::int64_t(cc.membership.joins[i].at));
            out += buf;
        }
        out += "],\"drains\":[";
        for (std::size_t i = 0; i < cc.membership.drains.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"node\":%u,\"at_ps\":%" PRId64 "}",
                          i ? "," : "", cc.membership.drains[i].node,
                          std::int64_t(cc.membership.drains[i].at));
            out += buf;
        }
        out += ']';
    }
    fieldB(out, "audit", spec.audit);
    field(out, "shards", spec.shards);
    out += '}';
    return out;
}

std::string
runResultJson(const RunResult &res)
{
    const txn::EngineStats &st = res.stats;
    std::string out = "{";
    // A counter-table entry: bools as true/false, Ticks signed.
    auto counter = [&out](const txn::CounterInfo &c, auto v) {
        if constexpr (std::is_same_v<decltype(v), bool>)
            fieldB(out, c.key, v);
        else if constexpr (std::is_signed_v<decltype(v)>)
            fieldI(out, c.key, v);
        else
            field(out, c.key, v);
    };
    fieldS(out, "label", res.label);
    fieldI(out, "sim_time_ps", res.simTime);
    fieldD(out, "throughput_tps", res.throughputTps);
    fieldD(out, "mean_latency_us", res.meanLatencyUs);
    fieldD(out, "p50_latency_us", res.p50LatencyUs);
    fieldD(out, "p95_latency_us", res.p95LatencyUs);
    fieldD(out, "exec_us", res.execUs);
    fieldD(out, "validation_us", res.validationUs);
    fieldD(out, "commit_us", res.commitUs);
    out += ",\"overhead_share\":[";
    for (std::size_t i = 0; i < res.overheadShare.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                      res.overheadShare[i]);
        out += buf;
    }
    out += ']';
    fieldD(out, "other_share", res.otherShare);
    fieldD(out, "squash_rate", res.squashRate);
    fieldD(out, "eviction_squash_rate", res.evictionSquashRate);
    fieldD(out, "bf_false_positive_rate", res.bfFalsePositiveRate);
    forEachResultCounter(res, counter);

    out += ",\"stats\":{";
    txn::forEachStatsCounter(st, counter, [&] {
        out += ",\"squashes\":{";
        for (std::size_t i = 0; i < st.squashes.size(); ++i) {
            std::string name =
                txn::squashReasonName(txn::SquashReason(i));
            if (i)
                out += ',';
            appendEscaped(out, name);
            char buf[32];
            std::snprintf(buf, sizeof(buf), ":%" PRIu64, st.squashes[i]);
            out += buf;
        }
        out += '}';
        field(out, "latency_count", st.latency.count());
        fieldD(out, "latency_mean_ps", st.latency.mean());
        field(out, "latency_p50_ps", st.latency.p50());
        field(out, "latency_p95_ps", st.latency.p95());
        field(out, "latency_p99_ps", st.latency.p99());
    });
    out += "}}";
    return out;
}

std::string
sweepReportJson(const std::string &tool, unsigned jobs, bool smoke,
                const std::vector<JsonRun> &runs)
{
    std::string out = "{";
    fieldS(out, "schema", "hades-sweep-v1");
    fieldS(out, "tool", tool);
    field(out, "jobs", jobs);
    fieldB(out, "smoke", smoke);
    out += ",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonRun &r = runs[i];
        if (i)
            out += ',';
        std::string entry = "{";
        field(entry, "index", r.outcome->index);
        fieldS(entry, "key", r.key);
        fieldB(entry, "ok", r.outcome->ok);
        if (!r.outcome->ok)
            fieldS(entry, "error", r.outcome->error);
        entry += ",\"spec\":";
        entry += runSpecJson(*r.spec);
        if (r.outcome->ok) {
            entry += ",\"result\":";
            entry += runResultJson(r.outcome->result);
        }
        entry += '}';
        out += entry;
    }
    out += "]}\n";
    return out;
}

void
writeJsonFile(const std::string &path, const std::string &json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open --json output file for writing");
    const std::size_t n =
        std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = n == json.size() && std::fclose(f) == 0;
    if (!ok)
        fatal("short write to --json output file");
}

} // namespace hades::core
