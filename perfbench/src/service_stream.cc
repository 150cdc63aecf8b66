/**
 * @file
 * service_stream — the daemon use case, open loop. Sixteen tenants
 * replay registry apps back to back (streams.hh: TenantGen), merged
 * in seeded bursts into one stream offered at a fixed aggregate rate.
 * A single generator thread submits the events that are due in paced
 * batches (submitMany) and sleeps between them; every app sink and
 * every probe is a synchronous checkSinkNow issued at its due time
 * and timed from that due time. The service runs threaded
 * (runWorkers) with three workers, one per shard: four threads in all.
 * Every verdict is checked against a serial IdealRangeStore replay of
 * its tenant's stream.
 */

#include <cinttypes>
#include <ctime>
#include <thread>

#include <sys/prctl.h>

#include "exec/thread_pool.hh"
#include "report.hh"

namespace perfbench
{

namespace
{

constexpr unsigned kTenants = 16;
constexpr unsigned kShards = 3;  //!< one per worker
constexpr unsigned kWorkers = 3; //!< + the generator = 4 threads
constexpr unsigned kProbeEvery = 16; //!< memory events per tenant probe
constexpr uint64_t kTickNs = 200000;  //!< generator batching period

/**
 * Frozen offered rate, events/s: about half the rate at which the
 * 3-worker service first builds a steady backlog (measured once at
 * 200k/300k/400k events/s on a 4-vCPU x86-64 virtual machine, see
 * perfbench/README.md).
 */
constexpr double kOfferedRate = 125000.0;

/** The sink_p99_us latency limit of this workload. */
constexpr double kP99LimitUs = 1000.0;

/** CPU is sampled once per this many ns of schedule. */
constexpr uint64_t kCpuSliceNs = 1000000000;

/** Events of the stream the pump-mode ledger and storage probe replay. */
constexpr size_t kLedgerEvents = 400000;

struct Inputs
{
    std::vector<ServiceEvent> stream;
    std::vector<size_t> sinks; //!< stream indices of Sink events
    uint64_t hash = 0;
    double capture_s = 0, events_from_trace_s = 0, setup_s = 0;
    uint64_t records = 0;
};

Inputs
setUp(uint64_t seed, size_t events)
{
    Inputs in;
    uint64_t t0 = nowNs();
    auto apps = captureRegistry();
    uint64_t t1 = nowNs();
    auto app_events = appEvents(apps);
    uint64_t t2 = nowNs();
    in.records = registryRecords(apps);
    apps.clear();

    std::vector<TenantGen> gens;
    gens.reserve(kTenants);
    for (unsigned t = 0; t < kTenants; ++t)
        gens.emplace_back(app_events, t + 1, seed, kProbeEvery);
    uint64_t rng = seed;
    in.stream.reserve(events);
    while (in.stream.size() < events) {
        auto &gen = gens[splitmix(rng) % kTenants];
        size_t burst = 16 + splitmix(rng) % 113;
        for (size_t k = 0; k < burst && in.stream.size() < events; ++k)
            in.stream.push_back(gen.next());
    }
    for (size_t i = 0; i < in.stream.size(); ++i)
        if (in.stream[i].kind == EventKind::Sink)
            in.sinks.push_back(i);
    in.setup_s = static_cast<double>(nowNs() - t0) * 1e-9;
    in.capture_s = static_cast<double>(t1 - t0) * 1e-9;
    in.events_from_trace_s = static_cast<double>(t2 - t1) * 1e-9;
    in.hash = streamHash(in.stream.data(), in.stream.size());
    return in;
}

void
sleepUntil(uint64_t ns)
{
    timespec ts;
    ts.tv_sec = static_cast<time_t>(ns / 1000000000ull);
    ts.tv_nsec = static_cast<long>(ns % 1000000000ull);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr))
        ;
}

service::ServiceConfig
serviceConfig()
{
    service::ServiceConfig cfg;
    cfg.shards = kShards;
    cfg.queue_capacity = 1u << 16;
    return cfg;
}

struct OpenLoop
{
    std::vector<core::SinkVerdict> verdicts; //!< per sink, in order
    std::vector<double> lat_us;  //!< completion - due
    std::vector<double> late_us; //!< generator start - due
    std::vector<double> backlog; //!< accepted - drained (traced only)
    std::vector<double> cpu_us_per_event; //!< per kCpuSliceNs slice
    double wall_s = 0, cpu_s = 0;
    service::ServiceStats stats;
};

/**
 * Offer @p in's stream at kOfferedRate to @p svc in threaded mode. With a
 * recorder, submit/check calls are spanned and the backlog is read at
 * every sink's due time.
 */
OpenLoop
openLoop(service::TrackingService &svc, const Inputs &in, SpanRecorder *rec)
{
    OpenLoop out;
    const auto &stream = in.stream;
    const size_t n = stream.size();
    out.verdicts.reserve(in.sinks.size());
    out.lat_us.reserve(in.sinks.size());
    out.late_us.reserve(in.sinks.size());

    exec::ThreadPool pool(kWorkers);
    std::thread runner([&] { svc.runWorkers(pool); });
    for (unsigned t = 0; t < kTenants; ++t)
        svc.attach(t + 1);

    const double ns_per_event = 1e9 / kOfferedRate;
    const uint64_t t0 = nowNs() + 2000000; // let the workers park
    auto due = [&](size_t i) {
        return t0 + static_cast<uint64_t>(static_cast<double>(i) *
                                          ns_per_event);
    };
    const double cpu0 = cpuSeconds();
    double slice_cpu = cpu0;
    size_t slice_i = 0;
    uint64_t next_slice = t0 + kCpuSliceNs;
    size_t i = 0, k = 0; // next event, next sink
    while (i < n) {
        uint64_t now = nowNs();
        if (now >= next_slice) {
            double cpu = cpuSeconds();
            if (i > slice_i)
                out.cpu_us_per_event.push_back(
                    (cpu - slice_cpu) * 1e6 / static_cast<double>(i - slice_i));
            slice_cpu = cpu;
            slice_i = i;
            next_slice += kCpuSliceNs;
        }
        size_t limit = now < t0
            ? 0
            : std::min(n, static_cast<size_t>(
                              static_cast<double>(now - t0) / ns_per_event) +
                              1);
        if (limit <= i) {
            uint64_t wake = now + kTickNs;
            if (k < in.sinks.size())
                wake = std::min(wake, due(in.sinks[k]));
            sleepUntil(std::max(wake, due(i)));
            continue;
        }
        while (i < limit) {
            size_t j = k < in.sinks.size() ? std::min(in.sinks[k], limit)
                                           : limit;
            if (j > i) {
                Scoped span(rec, "service.submit", j - i);
                svc.submitMany(stream.data() + i, j - i);
                i = j;
            }
            if (i < limit) { // stream[i] is sink k
                const ServiceEvent &ev = stream[i];
                const uint64_t d = due(i);
                if (rec) {
                    auto st = svc.stats();
                    out.backlog.push_back(
                        static_cast<double>(st.accepted - st.drained));
                }
                uint64_t start = nowNs();
                core::SinkVerdict v;
                {
                    Scoped span(rec, "service.check", ev.pid);
                    v = svc.checkSinkNow(ev.pid, ev.start, ev.end, ev.id);
                }
                uint64_t done = nowNs();
                out.verdicts.push_back(v);
                out.lat_us.push_back(static_cast<double>(done - d) / 1e3);
                out.late_us.push_back(
                    static_cast<double>(start > d ? start - d : 0) / 1e3);
                ++i;
                ++k;
            }
        }
    }
    svc.stop();
    runner.join();
    out.wall_s = static_cast<double>(nowNs() - t0) * 1e-9;
    out.cpu_s = cpuSeconds() - cpu0;
    out.stats = svc.stats();
    return out;
}

/** Reference verdicts of every sink, in stream order. */
std::vector<core::SinkVerdict>
referenceVerdicts(const std::vector<ServiceEvent> &stream, size_t n)
{
    std::vector<core::IdealRangeStore> stores(kTenants);
    std::vector<TenantTracker> trackers;
    trackers.reserve(kTenants);
    for (unsigned t = 0; t < kTenants; ++t)
        trackers.emplace_back(t + 1, stores[t]);
    std::vector<core::SinkVerdict> out;
    for (size_t i = 0; i < n; ++i) {
        const ServiceEvent &ev = stream[i];
        TenantTracker &tt = trackers[ev.pid - 1];
        tt.apply(ev);
        if (ev.kind == EventKind::Sink)
            out.push_back(lastVerdict(tt));
    }
    return out;
}

/** Count verdict failures and refused events into @p res. */
void
verify(const OpenLoop &run, const std::vector<core::SinkVerdict> &ref,
       Result &res)
{
    VerdictTally tally;
    for (size_t s = 0; s < run.verdicts.size(); ++s)
        tally.compare(run.verdicts[s], ref[s], false);
    res.attempted += run.stats.submitted + run.verdicts.size();
    res.failed += tally.failures() + run.stats.overflowed;
    Result::info("verify: %" PRIu64 " sink verdicts, fp=%" PRIu64
                 " silent_fn=%" PRIu64 " mismatch=%" PRIu64
                 ", %" PRIu64 " refused events",
                 tally.checked, tally.fp, tally.silent_fn, tally.mismatch,
                 run.stats.overflowed);
}

int
traced(const Args &args, const Inputs &in, double session_bytes,
       Result &res)
{
    LayerMetrics m;
    m.session_bytes = session_bytes;
    m.sim_capture_s = in.capture_s;
    m.sim_capture_records_per_s =
        static_cast<double>(in.records) / in.capture_s;
    m.events_from_trace_s = in.events_from_trace_s;
    auto ref = referenceVerdicts(in.stream, in.stream.size());

    // Untraced open loop, then quiescent checks on the drained service.
    OpenLoop plain;
    {
        service::TrackingService svc(serviceConfig());
        plain = openLoop(svc, in, nullptr);
        std::vector<double> check_us;
        for (size_t q = 0; q < 4000; ++q) {
            const ServiceEvent &ev = in.stream[in.sinks[q % in.sinks.size()]];
            uint64_t c0 = nowNs();
            svc.checkSinkNow(ev.pid, ev.start, ev.end, ev.id);
            check_us.push_back(static_cast<double>(nowNs() - c0) / 1e3);
        }
        m.check_us_p99 = quantile(check_us, 0.99);
    }
    verify(plain, ref, res);
    m.gen_late_p99_us = quantile(plain.late_us, 0.99);
    m.cpu_util = plain.cpu_s / (plain.wall_s * (kWorkers + 1));
    m.sink_samples = static_cast<double>(plain.lat_us.size());

    // Traced open loop: spans around every call, backlog at each sink.
    SpanRecorder rec;
    OpenLoop tr;
    {
        service::TrackingService svc(serviceConfig());
        tr = openLoop(svc, in, &rec);
    }
    verify(tr, ref, res);
    m.overflowed =
        static_cast<double>(plain.stats.overflowed + tr.stats.overflowed);
    m.backlog_p99 = quantile(tr.backlog, 0.99);
    m.submit_ns_per_event = static_cast<double>(rec.totalNs("service.submit")) /
        static_cast<double>(tr.stats.submitted);
    const double cpu_plain = plain.cpu_s / static_cast<double>(in.stream.size());
    const double cpu_traced = tr.cpu_s / static_cast<double>(in.stream.size());
    m.trace_overhead_frac = cpu_traced / cpu_plain - 1.0;
    Result::info("tracing overhead: %.4f vs %.4f us CPU per event "
                 "(open loop: wall time is fixed by the schedule)",
                 cpu_traced * 1e6, cpu_plain * 1e6);
    rec.write(spansPath(args), "open_loop", false);

    // Pump-mode ledger over a prefix of the stream, one thread.
    const size_t n = std::min(kLedgerEvents, in.stream.size());
    SpanRecorder led;
    double ledger_ns = 0;
    uint64_t a0 = allocCount();
    {
        service::TrackingService svc(serviceConfig());
        std::vector<core::SinkVerdict> got;
        uint64_t p0 = nowNs();
        {
            Scoped root(&led, "bench.ledger");
            size_t i = 0;
            while (i < n) {
                size_t j = i;
                while (j < n && j - i < 4096 &&
                       in.stream[j].kind != EventKind::Sink)
                    ++j;
                if (j > i) {
                    {
                        Scoped span(&led, "service.submit", j - i);
                        svc.submitMany(in.stream.data() + i, j - i);
                    }
                    Scoped span(&led, "service.pump");
                    svc.pump(1);
                }
                if (j < n && in.stream[j].kind == EventKind::Sink) {
                    const ServiceEvent &ev = in.stream[j];
                    Scoped span(&led, "service.check", ev.pid);
                    got.push_back(
                        svc.checkSinkNow(ev.pid, ev.start, ev.end, ev.id));
                    ++j;
                }
                i = j;
            }
        }
        ledger_ns = static_cast<double>(nowNs() - p0);
        auto st = svc.stats();
        m.pump_ns_per_event = static_cast<double>(led.totalNs("service.pump")) /
            static_cast<double>(st.drained);
        VerdictTally tally;
        for (size_t s = 0; s < got.size(); ++s)
            tally.compare(got[s], ref[s], false);
        res.attempted += st.submitted + got.size();
        res.failed += tally.failures() + st.overflowed;
    }
    m.alloc_per_event =
        static_cast<double>(allocCount() - a0) / static_cast<double>(n);
    Result::info("exact counters: allocations=%" PRIu64
                 " over %zu events (pump-mode ledger)",
                 allocCount() - a0, n);
    m.explained_frac = reconcileLedger(led, "service_stream", ledger_ns, res);
    led.write(spansPath(args), "ledger", true);

    // core.tracker / core.storage on the same tenant streams.
    std::vector<std::vector<ServiceEvent>> tenants(kTenants);
    for (size_t i = 0; i < n; ++i)
        tenants[in.stream[i].pid - 1].push_back(in.stream[i]);
    SpanRecorder srec;
    StorageProbe probe = probeStorage(tenants, &srec);
    if (!probe.identical) {
        res.correct = false;
        ++res.failed;
    }
    fillStorageLayer(m, probe);
    m.pump_explained_frac =
        probe.plain_wall_ns / static_cast<double>(led.totalNs("service.pump"));
    srec.write(spansPath(args), "storage_probe", true);

    m.failed_frac = static_cast<double>(res.failed) /
        static_cast<double>(res.attempted);
    emitLayerMetrics(res, m);
    return 0;
}

} // namespace

int
runServiceStream(const Args &args)
{
    Result res;
    const bool trace = args.trace;
    double session_bytes = trace ? sessionBytes() : 0.0;
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); // 1 us wakeup slack

    const size_t events = static_cast<size_t>(kOfferedRate * args.seconds);
    Inputs in;
    std::vector<double> setup_times;
    std::vector<uint64_t> hashes;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        in = Inputs{};
        in = setUp(args.seed, events);
        setup_times.push_back(in.setup_s);
        hashes.push_back(in.hash);
    }
    for (uint64_t h : hashes)
        if (h != in.hash) {
            Result::info("stream generation is not deterministic");
            res.correct = false;
        }
    Result::info("service_stream: seed %" PRIu64 ", stream hash %016" PRIx64
                 ", %zu events (%zu sinks) offered at %.0f events/s to %u "
                 "tenants, %u workers",
                 args.seed, in.hash, in.stream.size(), in.sinks.size(), kOfferedRate,
                 kTenants, kWorkers);
    {
        // Ground truth, outside every timed interval.
        auto apps = captureRegistry();
        if (!referenceMatchesGroundTruth(apps))
            return 3;
    }

    if (trace) {
        int rc = traced(args, in, session_bytes, res);
        res.print();
        return rc;
    }

    OpenLoop run;
    {
        service::TrackingService svc(serviceConfig());
        run = openLoop(svc, in, nullptr);
    }
    verify(run, referenceVerdicts(in.stream, in.stream.size()), res);
    if (res.failed)
        res.correct = false;

    EndToEnd e;
    e.setup_s = median(setup_times);
    e.events_per_s = static_cast<double>(run.stats.drained) / run.wall_s;
    e.sink_p50_us = quantile(run.lat_us, 0.50);
    e.sink_p99_us = quantile(run.lat_us, 0.99);
    e.cpu_us_per_event = quietCost(run.cpu_us_per_event);
    Result::info("service_stream: %zu sink samples, p99 %.1f us (%zu above), "
                 "limit %.0f us -> %s; generator late p99 %.1f us",
                 run.lat_us.size(), e.sink_p99_us,
                 countAbove(run.lat_us, e.sink_p99_us), kP99LimitUs,
                 e.sink_p99_us <= kP99LimitUs ? "met" : "MISSED",
                 quantile(run.late_us, 0.99));
    Result::info("service_stream: generator late p50 %.1f us; latency "
                 "p50 %.1f us of which late %.1f us",
                 quantile(run.late_us, 0.50), quantile(run.lat_us, 0.50),
                 quantile(run.late_us, 0.50));
    emitEndToEnd(res, e);
    res.print();
    return 0;
}

} // namespace perfbench
