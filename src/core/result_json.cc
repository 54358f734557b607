#include "core/result_json.hh"

#include <cinttypes>
#include <cstdio>

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

void
field(std::string &out, const char *name, std::uint64_t v, bool first = false)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64,
                  first ? "" : ",", name, v);
    out += buf;
}

void
fieldI(std::string &out, const char *name, std::int64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRId64, name, v);
    out += buf;
}

void
fieldD(std::string &out, const char *name, double v)
{
    // %.17g round-trips IEEE doubles, so "bit-identical results" is a
    // claim consumers can check on the JSON alone.
    char buf[128];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", name, v);
    out += buf;
}

void
fieldS(std::string &out, const char *name, const std::string &v,
       bool first = false)
{
    if (!first)
        out += ',';
    out += '"';
    out += name;
    out += "\":";
    appendEscaped(out, v);
}

void
fieldB(std::string &out, const char *name, bool v)
{
    out += ",\"";
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
    fieldS(out, "engine", protocol::engineKindName(spec.engine), true);
    out += ",\"mix\":[";
    for (std::size_t i = 0; i < spec.mix.size(); ++i) {
        if (i)
            out += ',';
        std::string e = "{";
        fieldS(e, "app", workload::appKindName(spec.mix[i].app), true);
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
    fieldS(out, "label", res.label, true);
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
    field(out, "replicated_commits", res.replicatedCommits);
    field(out, "replication_aborts", res.replicationAborts);
    field(out, "lost_replica_messages", res.lostReplicaMessages);
    field(out, "fault_drops", res.faultDrops);
    field(out, "fault_duplicates", res.faultDuplicates);
    field(out, "fault_delays", res.faultDelays);
    field(out, "fault_nic_stalls", res.faultNicStalls);
    field(out, "fault_crash_drops", res.faultCrashDrops);
    field(out, "partition_drops", res.partitionDrops);
    field(out, "partition_heals", res.partitionHeals);
    field(out, "corrupt_drops", res.corruptDrops);
    field(out, "net_retransmits", res.netRetransmits);
    field(out, "timeout_resends", res.timeoutResends);
    field(out, "reliable_resends", res.reliableResends);
    field(out, "timeout_squashes", res.timeoutSquashes);
    fieldB(out, "recovery_enabled", res.recoveryEnabled);
    field(out, "lease_probes", res.leaseProbes);
    field(out, "view_changes", res.viewChanges);
    field(out, "promoted_records", res.promotedRecords);
    field(out, "indoubt_committed", res.inDoubtCommitted);
    field(out, "indoubt_aborted", res.inDoubtAborted);
    field(out, "replayed_writes", res.replayedWrites);
    field(out, "resynced_images", res.resyncedImages);
    field(out, "fenced_stale_messages", res.fencedStaleMessages);
    field(out, "cm_failovers", res.cmFailovers);
    field(out, "quorum_refusals", res.quorumRefusals);
    field(out, "stale_lease_grants", res.staleLeaseGrants);
    field(out, "divergent_records", res.divergentRecords);
    field(out, "grey_delays", res.greyDelays);
    field(out, "straggler_reserves", res.stragglerReserves);
    field(out, "slo_samples", res.sloSamples);
    field(out, "slo_suspect_transitions", res.sloSuspectTransitions);
    field(out, "slo_degraded_transitions", res.sloDegradedTransitions);
    field(out, "hedged_sends", res.hedgedSends);
    field(out, "hedge_wins", res.hedgeWins);
    field(out, "admitted_txns", res.admittedTxns);
    field(out, "shed_txns", res.shedTxns);
    field(out, "retry_budget_deferrals", res.retryBudgetDeferrals);
    field(out, "quarantines", res.quarantines);
    fieldB(out, "membership_enabled", res.membershipEnabled);
    fieldB(out, "membership_complete", res.membershipComplete);
    field(out, "records_migrated", res.recordsMigrated);
    field(out, "migration_batches", res.migrationBatches);
    field(out, "drain_duration_events", res.drainDurationEvents);
    field(out, "joins_completed", res.joinsCompleted);
    field(out, "stale_placement_retries", res.stalePlacementRetries);
    fieldB(out, "audited", res.audited);
    field(out, "audited_commits", res.auditedCommits);
    field(out, "audited_aborts", res.auditedAborts);
    field(out, "audit_graph_edges", res.auditGraphEdges);
    field(out, "audit_checks", res.auditChecks);
    field(out, "shards_used", res.shardsUsed);
    fieldB(out, "shards_threaded", res.shardsThreaded);
    fieldB(out, "lane_closed", res.laneClosed);
    field(out, "shard_windows", res.shardWindows);
    field(out, "cross_shard_events", res.crossShardEvents);
    fieldB(out, "serial_rerun", res.serialRerun);

    out += ",\"stats\":{";
    field(out, "committed", st.committed, true);
    field(out, "attempts", st.attempts);
    field(out, "lock_mode_fallbacks", st.lockModeFallbacks);
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
    fieldI(out, "total_busy_ticks", st.totalBusyTicks);
    field(out, "bf_conflict_checks", st.bfConflictChecks);
    field(out, "bf_false_positives", st.bfFalsePositives);
    field(out, "max_lines_read", st.maxLinesRead);
    field(out, "max_lines_written", st.maxLinesWritten);
    field(out, "net_messages", st.netMessages);
    field(out, "net_bytes", st.netBytes);
    field(out, "timeout_resends", st.timeoutResends);
    field(out, "reliable_resends", st.reliableResends);
    field(out, "retry_budget_deferrals", st.retryBudgetDeferrals);
    out += "}}";
    return out;
}

std::string
sweepReportJson(const std::string &tool, unsigned jobs, bool smoke,
                const std::vector<JsonRun> &runs)
{
    std::string out = "{";
    fieldS(out, "schema", "hades-sweep-v1", true);
    fieldS(out, "tool", tool);
    field(out, "jobs", jobs);
    fieldB(out, "smoke", smoke);
    out += ",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonRun &r = runs[i];
        if (i)
            out += ',';
        std::string entry = "{";
        field(entry, "index", r.outcome->index, true);
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
