#include "report.hh"

#include <algorithm>
#include <cinttypes>
#include <filesystem>

#include <sys/resource.h>

#include "service/service.hh"

namespace perfbench
{

void
emitEndToEnd(Result &res, const EndToEnd &e)
{
    res.metric("setup_s", e.setup_s, "s");
    res.metric("events_per_s", e.events_per_s, "events/s");
    res.metric("sink_p50_us", e.sink_p50_us, "us");
    res.metric("sink_p99_us", e.sink_p99_us, "us");
    res.metric("cpu_us_per_event", e.cpu_us_per_event, "us");
    res.metric("peak_rss_mb", peakRssMb(), "MB");
}

void
emitLayerMetrics(Result &res, const LayerMetrics &m)
{
    res.metric("sim.capture_s", m.sim_capture_s, "s");
    res.metric("sim.capture_records_per_s", m.sim_capture_records_per_s,
               "1/s");
    res.metric("service.events_from_trace_s", m.events_from_trace_s, "s");
    res.metric("sim.pack_s", m.sim_pack_s, "s");
    res.metric("core.tracker.batched_events_per_s", m.tracker_batched_eps,
               "1/s");
    res.metric("core.tracker.per_event_events_per_s",
               m.tracker_per_event_eps, "1/s");
    res.metric("core.tracker.windows_per_kevent", m.windows_per_kevent,
               "count");
    res.metric("core.tracker.taints_per_kevent", m.taints_per_kevent,
               "count");
    res.metric("core.tracker.untaints_per_kevent", m.untaints_per_kevent,
               "count");
    res.metric("core.storage.query_ns", m.storage_query_ns, "ns");
    res.metric("core.storage.insert_ns", m.storage_insert_ns, "ns");
    res.metric("core.storage.remove_ns", m.storage_remove_ns, "ns");
    res.metric("core.storage.totals_ns", m.storage_totals_ns, "ns");
    res.metric("core.storage.busy_frac", m.storage_busy_frac, "ratio");
    res.metric("core.storage.calls_per_event", m.storage_calls_per_event,
               "count");
    res.metric("core.storage.entry_compares_per_event",
               m.entry_compares_per_event, "count");
    res.metric("core.storage.probe_memo_hit_frac", m.probe_memo_hit_frac,
               "ratio");
    res.metric("core.storage.max_entries_used", m.max_entries_used,
               "count");
    res.metric("core.storage.evictions_per_kevent", m.evictions_per_kevent,
               "count");
    res.metric("core.storage.spill_hits_per_kevent",
               m.spill_hits_per_kevent, "count");
    res.metric("core.storage.session_bytes", m.session_bytes, "B");
    res.metric("core.range_store.busy_frac", m.range_store_busy_frac,
               "ratio");
    res.metric("service.submit_ns_per_event", m.submit_ns_per_event, "ns");
    res.metric("service.pump_ns_per_event", m.pump_ns_per_event, "ns");
    res.metric("service.cpu_util", m.cpu_util, "ratio");
    res.metric("service.check_us_p99", m.check_us_p99, "us");
    res.metric("service.backlog_p99", m.backlog_p99, "count");
    res.metric("service.attach_us_p99", m.attach_us_p99, "us");
    res.metric("service.maintain_ms", m.maintain_ms, "ms");
    res.metric("service.evicted", m.evicted, "count");
    res.metric("service.degraded_frac", m.degraded_frac, "ratio");
    res.metric("service.overflowed", m.overflowed, "count");
    res.metric("gen.late_p99_us", m.gen_late_p99_us, "us");
    res.metric("alloc.per_event", m.alloc_per_event, "count");
    res.metric("ledger.explained_frac", m.explained_frac, "ratio");
    res.metric("ledger.trace_overhead_frac", m.trace_overhead_frac,
               "ratio");
    res.metric("ledger.pump_explained_frac", m.pump_explained_frac,
               "ratio");
    res.metric("failed_frac", m.failed_frac, "ratio");
    res.metric("sink.samples", m.sink_samples, "count");
}

double
reconcileLedger(const SpanRecorder &rec, const char *root, double wall_ns,
                Result &res)
{
    double explained = 0;
    Result::info("ledger %s: wall %.3f ms", root, wall_ns / 1e6);
    for (const auto &[layer, ns] : rec.selfNs()) {
        Result::info("  self %-16s %12.3f ms  %6.2f%%", layer.c_str(),
                     static_cast<double>(ns) / 1e6,
                     100.0 * static_cast<double>(ns) / wall_ns);
        if (layer != "bench")
            explained += static_cast<double>(ns);
    }
    double frac = wall_ns > 0 ? explained / wall_ns : 0.0;
    bool ok = frac >= 1.0 - kLedgerTolerance && frac <= 1.0 + 1e-9;
    Result::info("  explained %.4f of wall (tolerance: >= %.2f) -> %s",
                 frac, 1.0 - kLedgerTolerance, ok ? "ok" : "NOT RECONCILED");
    if (!ok)
        res.correct = false;
    return frac;
}

namespace
{

bool
sameStats(const core::StorageStats &a, const core::StorageStats &b)
{
    return a.lookups == b.lookups && a.lookup_hits == b.lookup_hits &&
        a.spill_hits == b.spill_hits && a.inserts == b.inserts &&
        a.removes == b.removes && a.evictions == b.evictions &&
        a.dropped == b.dropped &&
        a.saturation_events == b.saturation_events &&
        a.coalesces == b.coalesces &&
        a.max_entries_used == b.max_entries_used &&
        a.entry_compares == b.entry_compares &&
        a.hot_probe_hits == b.hot_probe_hits;
}

bool
sameSinks(const std::vector<core::SinkResult> &a,
          const std::vector<core::SinkResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].verdict != b[i].verdict || a[i].tainted != b[i].tainted ||
            a[i].sink_id != b[i].sink_id ||
            a[i].at_records != b[i].at_records)
            return false;
    return true;
}

void
addStats(core::StorageStats &sum, const core::StorageStats &s)
{
    sum.lookups += s.lookups;
    sum.lookup_hits += s.lookup_hits;
    sum.spill_hits += s.spill_hits;
    sum.inserts += s.inserts;
    sum.removes += s.removes;
    sum.evictions += s.evictions;
    sum.dropped += s.dropped;
    sum.saturation_events += s.saturation_events;
    sum.coalesces += s.coalesces;
    sum.max_entries_used = std::max(sum.max_entries_used,
                                    s.max_entries_used);
    sum.entry_compares += s.entry_compares;
    sum.hot_probe_hits += s.hot_probe_hits;
}

} // namespace

StorageProbe
probeStorage(const std::vector<std::vector<ServiceEvent>> &tenants,
             SpanRecorder *rec)
{
    StorageProbe p;
    core::TaintStorageParams params; // the service's default CAM
    for (size_t t = 0; t < tenants.size(); ++t) {
        const auto &evs = tenants[t];
        if (evs.empty())
            continue;
        ProcId pid = evs.front().pid;

        core::TaintStorage timed_inner(params);
        TimedStore timed(timed_inner, rec);
        TenantTracker a(pid, timed);
        uint64_t t0 = nowNs();
        {
            Scoped span(rec, "core.tracker.replay", pid);
            for (const auto &ev : evs)
                a.apply(ev);
        }
        uint64_t t1 = nowNs();

        core::TaintStorage plain(params);
        TenantTracker b(pid, plain);
        for (const auto &ev : evs)
            b.apply(ev);
        uint64_t t2 = nowNs();

        p.timed_wall_ns += static_cast<double>(t1 - t0);
        p.plain_wall_ns += static_cast<double>(t2 - t1);
        p.times.add(timed.times());
        if (!sameStats(timed_inner.stats(), plain.stats()) ||
            !sameSinks(a.tracker().sinkResults(),
                       b.tracker().sinkResults()))
            p.identical = false;
        addStats(p.stats, plain.stats());
        const auto &ts = b.tracker().stats();
        p.tracker.loads += ts.loads;
        p.tracker.stores += ts.stores;
        p.tracker.tainted_loads += ts.tainted_loads;
        p.tracker.taint_ops += ts.taint_ops;
        p.tracker.untaint_ops += ts.untaint_ops;
        p.events += evs.size();
        for (const auto &ev : evs)
            p.mem_events += isMem(ev);
    }
    return p;
}

void
fillStorageLayer(LayerMetrics &m, const StorageProbe &p)
{
    auto per = [](uint64_t ns, uint64_t calls) {
        return calls ? static_cast<double>(ns) / static_cast<double>(calls)
                     : 0.0;
    };
    const StoreTimes &t = p.times;
    const double events = static_cast<double>(p.events);
    const double mem = static_cast<double>(p.mem_events);
    m.storage_query_ns = per(t.query_ns, t.query_calls);
    m.storage_insert_ns = per(t.insert_ns, t.insert_calls);
    m.storage_remove_ns = per(t.remove_ns, t.remove_calls);
    m.storage_totals_ns = per(t.totals_ns, t.totals_calls);
    m.storage_busy_frac =
        static_cast<double>(t.busyNs()) / p.timed_wall_ns;
    m.storage_calls_per_event =
        static_cast<double>(t.primaryCalls()) / events;
    m.entry_compares_per_event =
        static_cast<double>(p.stats.entry_compares) / events;
    m.probe_memo_hit_frac = p.stats.lookups
        ? static_cast<double>(p.stats.hot_probe_hits) /
            static_cast<double>(p.stats.lookups)
        : 0.0;
    m.max_entries_used = static_cast<double>(p.stats.max_entries_used);
    m.evictions_per_kevent =
        1e3 * static_cast<double>(p.stats.evictions) / events;
    m.spill_hits_per_kevent =
        1e3 * static_cast<double>(p.stats.spill_hits) / events;
    m.tracker_per_event_eps =
        mem / ((p.timed_wall_ns - static_cast<double>(t.busyNs())) * 1e-9);
    m.windows_per_kevent =
        1e3 * static_cast<double>(p.tracker.tainted_loads) / mem;
    m.taints_per_kevent = 1e3 * static_cast<double>(p.tracker.taint_ops) / mem;
    m.untaints_per_kevent =
        1e3 * static_cast<double>(p.tracker.untaint_ops) / mem;

    Result::info("storage probe: %s (decorator vs bare TaintStorage: "
                 "sink results and StorageStats)",
                 p.identical ? "identical" : "DIFFERENT");
    Result::info("exact counters: events=%" PRIu64 " mem_events=%" PRIu64
                 " storage_calls=%" PRIu64 " (query=%" PRIu64
                 " insert=%" PRIu64 " remove=%" PRIu64 ") totals_calls=%"
                 PRIu64,
                 p.events, p.mem_events, t.primaryCalls(), t.query_calls,
                 t.insert_calls, t.remove_calls, t.totals_calls);
    Result::info("exact counters: entry_compares=%" PRIu64
                 " lookups=%" PRIu64 " hot_probe_hits=%" PRIu64
                 " evictions=%" PRIu64 " spill_hits=%" PRIu64
                 " max_entries_used=%zu",
                 p.stats.entry_compares, p.stats.lookups,
                 p.stats.hot_probe_hits, p.stats.evictions,
                 p.stats.spill_hits, p.stats.max_entries_used);
    Result::info("exact counters: tainted_loads=%" PRIu64
                 " taint_ops=%" PRIu64 " untaint_ops=%" PRIu64,
                 p.tracker.tainted_loads, p.tracker.taint_ops,
                 p.tracker.untaint_ops);
}

double
sessionBytes(unsigned sessions)
{
    double before = peakRssMb();
    service::TrackingService svc;
    for (unsigned i = 0; i < sessions; ++i)
        svc.attach(static_cast<ProcId>(i + 1));
    double after = peakRssMb();
    return (after - before) * 1024.0 * 1024.0 / sessions;
}

std::string
spansPath(const Args &args)
{
    std::filesystem::create_directories(".bench_build/spans");
    return ".bench_build/spans/" + args.workload + "-" +
        std::to_string(args.seed) + ".jsonl";
}

} // namespace perfbench
