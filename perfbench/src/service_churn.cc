/**
 * @file
 * service_churn — session lifecycle under memory pressure, closed
 * loop in pump mode. 4096 tenants arrive 128 per round; each round
 * attaches the arrivals, submits the next 256 events of every live
 * tenant (submitMany), drains them (pump with 3 jobs) and runs
 * maintain(). Most tenants are short registry slices; one in 64 runs
 * a seeded write-heavy synthetic stream that taints more disjoint
 * ranges than the 2730-entry CAM holds, so LruSpill eviction and
 * spill hits engage. A byte ceiling makes maintain() evict, tombstone
 * and later re-admit tenants. At the end checkSinkNow runs on every
 * tenant; sink verdicts are checked against per-tenant
 * IdealRangeStore references (an evicted tenant may answer
 * MaybeTainted; it may never answer a wrong Tainted or Clean).
 */

#include <algorithm>
#include <cinttypes>

#include "report.hh"

namespace perfbench
{

namespace
{

constexpr unsigned kTenants = 4096;
constexpr unsigned kSynthEvery = 64;  //!< one synthetic tenant per 64
constexpr unsigned kArrivals = 128;   //!< tenants arriving per round
constexpr size_t kChunk = 256;        //!< events per live tenant per round
constexpr unsigned kShards = 16;
constexpr unsigned kPumpJobs = 3;
constexpr size_t kSynthRanges = 3600; //!< > the CAM's 2730 entries
constexpr uint64_t kCeiling = 1536 * 1024; //!< aggregate taint bytes

struct Round
{
    std::vector<ProcId> arrivals;
    std::vector<ServiceEvent> batch;
    std::vector<ProcId> sinks; //!< tenants with a Sink in the batch
};

struct Probe
{
    Addr start = 0, end = 3;
};

struct Inputs
{
    std::vector<std::vector<ServiceEvent>> tenants; //!< index = pid - 1
    std::vector<Probe> probes;                       //!< final checks
    std::vector<Round> rounds;
    uint64_t hash = 0, events = 0, records = 0;
    double capture_s = 0, events_from_trace_s = 0, setup_s = 0;
};

ServiceEvent
mem(ProcId pid, EventKind kind, Addr start, Addr end, SeqNum seq)
{
    ServiceEvent ev;
    ev.pid = pid;
    ev.kind = kind;
    ev.start = start;
    ev.end = end;
    ev.local_seq = seq;
    return ev;
}

/** A few hundred events of one registry app, from a seeded offset. */
std::vector<ServiceEvent>
slice(const std::vector<std::vector<ServiceEvent>> &apps, ProcId pid,
      uint64_t &rng)
{
    const auto &evs = apps[splitmix(rng) % apps.size()];
    const size_t len = 200 + splitmix(rng) % 400;
    size_t start = splitmix(rng) % std::max<size_t>(1, evs.size() - len);
    if (splitmix(rng) & 1) { // half start at the app's first source
        for (size_t i = 0; i < evs.size(); ++i)
            if (evs[i].kind == EventKind::Source) {
                start = i;
                break;
            }
    }
    std::vector<ServiceEvent> out;
    SeqNum first = 0;
    for (size_t i = start; i < std::min(evs.size(), start + len); ++i) {
        ServiceEvent ev = evs[i];
        ev.pid = pid;
        if (isMem(ev)) {
            if (!first)
                first = ev.local_seq;
            ev.local_seq = ev.local_seq - first + 1;
        }
        out.push_back(ev);
    }
    return out;
}

/**
 * Write-heavy stream: a source, then tainted loads each followed by
 * NT=3 in-window stores to fresh disjoint ranges; now and then a load
 * of an older range (a spill hit once it was evicted), an
 * out-of-window store (untaint), and a sink on an older range.
 */
std::vector<ServiceEvent>
synthetic(ProcId pid, uint64_t &rng)
{
    auto range = [](size_t k) {
        Addr a = 0x200000u + static_cast<Addr>(k) * 32u;
        return std::pair<Addr, Addr>(a, a + 7);
    };
    std::vector<ServiceEvent> out;
    ServiceEvent src;
    src.pid = pid;
    src.kind = EventKind::Source;
    src.start = 0x1000;
    src.end = 0x10ff;
    src.id = 1;
    out.push_back(src);
    SeqNum seq = 1;
    size_t k = 0;
    for (uint64_t g = 0; k < kSynthRanges; ++g) {
        out.push_back(mem(pid, EventKind::Load, 0x1000, 0x1007, seq++));
        for (int s = 0; s < 3; ++s, ++k) {
            auto [a, b] = range(k);
            out.push_back(mem(pid, EventKind::Store, a, b, seq++));
        }
        if (g % 8 == 7) {
            seq += 40;
            auto [la, lb] = range(splitmix(rng) % k);
            out.push_back(mem(pid, EventKind::Load, la, lb, seq++));
            auto [sa, sb] = range(splitmix(rng) % k);
            out.push_back(mem(pid, EventKind::Store, sa, sb, seq++));
        }
        if (g % 16 == 15) {
            seq += 40;
            auto [a, b] = range(splitmix(rng) % k);
            out.push_back(mem(pid, EventKind::Store, a, b, seq++));
        }
        if (g % 64 == 63) {
            auto [a, b] = range(splitmix(rng) % k);
            ServiceEvent sink;
            sink.pid = pid;
            sink.kind = EventKind::Sink;
            sink.start = a;
            sink.end = b;
            sink.id = static_cast<uint32_t>(100 + g);
            out.push_back(sink);
        }
    }
    return out;
}

Inputs
setUp(uint64_t seed)
{
    Inputs in;
    uint64_t t0 = nowNs();
    auto apps = captureRegistry();
    uint64_t t1 = nowNs();
    auto app_events = appEvents(apps);
    uint64_t t2 = nowNs();
    in.records = registryRecords(apps);
    apps.clear();

    in.tenants.resize(kTenants);
    in.probes.resize(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        const ProcId pid = t + 1;
        uint64_t rng = seed ^ (0x9e3779b97f4a7c15ull * pid);
        // One synthetic tenant per block of 64, at a position that
        // moves with the block so their pids spread over all shards.
        const bool synth = t % kSynthEvery == (t / kSynthEvery) % kSynthEvery;
        in.tenants[t] = synth ? synthetic(pid, rng)
                              : slice(app_events, pid, rng);
        for (const auto &ev : in.tenants[t])
            if (ev.kind == EventKind::Store)
                in.probes[t] = {ev.start, ev.end};
        in.events += in.tenants[t].size();
    }

    // Rounds: arrivals staggered kArrivals per round, kChunk events
    // of every live tenant per round.
    std::vector<size_t> pos(kTenants, 0);
    for (size_t r = 0;; ++r) {
        Round round;
        const size_t live = std::min<size_t>(kTenants, (r + 1) * kArrivals);
        for (size_t t = r * kArrivals; t < live; ++t)
            round.arrivals.push_back(static_cast<ProcId>(t + 1));
        for (size_t t = 0; t < live; ++t) {
            const auto &evs = in.tenants[t];
            size_t n = std::min(kChunk, evs.size() - pos[t]);
            round.batch.insert(round.batch.end(), evs.begin() + pos[t],
                               evs.begin() + pos[t] + n);
            if (std::any_of(evs.begin() + pos[t], evs.begin() + pos[t] + n,
                            [](const ServiceEvent &ev) {
                                return ev.kind == EventKind::Sink;
                            }))
                round.sinks.push_back(static_cast<ProcId>(t + 1));
            pos[t] += n;
        }
        if (round.arrivals.empty() && round.batch.empty())
            break;
        in.rounds.push_back(std::move(round));
    }
    in.setup_s = static_cast<double>(nowNs() - t0) * 1e-9;
    in.capture_s = static_cast<double>(t1 - t0) * 1e-9;
    in.events_from_trace_s = static_cast<double>(t2 - t1) * 1e-9;

    uint64_t h = fnv1a(nullptr, 0);
    for (const auto &round : in.rounds)
        h = streamHash(round.batch.data(), round.batch.size(), h);
    for (const auto &p : in.probes) {
        const Addr f[] = {p.start, p.end};
        h = fnv1a(f, sizeof f, h);
    }
    in.hash = h;
    return in;
}

service::ServiceConfig
serviceConfig()
{
    service::ServiceConfig cfg;
    cfg.shards = kShards;
    cfg.queue_capacity = 1u << 20;
    cfg.memory_ceiling = kCeiling;
    return cfg;
}

/** Reference sink verdicts per tenant, the final check included. */
std::vector<std::vector<core::SinkVerdict>>
referenceVerdicts(const Inputs &in)
{
    std::vector<std::vector<core::SinkVerdict>> out(kTenants);
    uint64_t bytes = 0, verdicts = 0;
    for (unsigned t = 0; t < kTenants; ++t) {
        core::IdealRangeStore store;
        TenantTracker tt(t + 1, store);
        for (const auto &ev : in.tenants[t])
            tt.apply(ev);
        ServiceEvent check;
        check.pid = t + 1;
        check.kind = EventKind::Sink;
        check.start = in.probes[t].start;
        check.end = in.probes[t].end;
        check.id = kProbeIdBase;
        tt.apply(check);
        for (const auto &r : tt.tracker().sinkResults())
            out[t].push_back(r.verdict);
        verdicts += out[t].size();
        bytes += store.bytes();
    }
    Result::info("reference: %" PRIu64 " sink verdicts; tenants end holding %"
                 PRIu64 " tainted bytes in all (ceiling %" PRIu64 ")",
                 verdicts, bytes, kCeiling);
    return out;
}

struct Cycle
{
    double wall_s = 0, cpu_s = 0; //!< verification excluded
    /** Wall and CPU seconds per round, the final checks last. */
    std::vector<double> step_s, step_cpu_s;
    std::vector<double> check_us;
    service::ServiceStats stats;
    VerdictTally tally;
    uint64_t degraded = 0;
    uint64_t allocs = 0;
    double pump_cpu_s = 0; //!< process CPU inside pump() (all threads)
};

/**
 * Every sink result of every tenant, across all the sessions the
 * tenant had. maintain() may shed a session and its results with it,
 * so the results are read before each maintain() and a session that
 * maintain() removed is closed; results of a session after the first
 * one come from a re-admission that lost state.
 */
class ResultLog
{
  public:
    ResultLog() : current_(kTenants), lost_(kTenants, 0), all_(kTenants) {}

    /** Read @p pid's live session's results (all of them so far). */
    void read(const service::TrackingService &svc, ProcId pid)
    {
        current_[pid - 1] = svc.sinkResultsFor(pid);
    }

    /** Tenants with a live session (pidState, cheaper than sessions()). */
    static std::vector<ProcId> live(const service::TrackingService &svc)
    {
        std::vector<ProcId> out;
        for (ProcId pid = 1; pid <= kTenants; ++pid)
            if (svc.pidState(pid) == service::PidState::Active)
                out.push_back(pid);
        return out;
    }

    /** Close the sessions of @p before that maintain() removed. */
    void closeShed(const service::TrackingService &svc,
                   const std::vector<ProcId> &before)
    {
        for (ProcId pid : before)
            if (svc.pidState(pid) != service::PidState::Active)
                close(pid);
    }

    /** Close @p pid's session: its results are final. */
    void close(ProcId pid)
    {
        for (const auto &r : current_[pid - 1])
            all_[pid - 1].push_back({r.verdict, lost_[pid - 1] > 0});
        current_[pid - 1].clear();
        ++lost_[pid - 1];
    }

    /** (verdict, from a state-lost session) in sink order. */
    const std::vector<std::pair<core::SinkVerdict, bool>> &of(ProcId pid) const
    {
        return all_[pid - 1];
    }

  private:
    std::vector<std::vector<core::SinkResult>> current_;
    std::vector<uint32_t> lost_;
    std::vector<std::vector<std::pair<core::SinkVerdict, bool>>> all_;
};

/**
 * One full pass: fresh service, every round, final checks on every
 * tenant (timed). Reading the sink results around maintain() is not
 * timed; the verdict comparison follows the pass.
 */
Cycle
runCycle(const Inputs &in,
         const std::vector<std::vector<core::SinkVerdict>> &ref,
         SpanRecorder *rec)
{
    Cycle c;
    service::TrackingService svc(serviceConfig());
    ResultLog log;
    uint64_t untimed_ns = 0, step_untimed_ns = 0;
    double untimed_cpu = 0, step_untimed_cpu = 0;
    auto untimed = [&](auto &&fn) {
        const uint64_t u0 = nowNs();
        const double k0 = cpuSeconds();
        fn();
        step_untimed_ns += nowNs() - u0;
        step_untimed_cpu += cpuSeconds() - k0;
    };
    const double cpu0 = cpuSeconds();
    const uint64_t a0 = allocCount();
    const uint64_t t0 = nowNs();
    {
        Scoped root(rec, "bench.cycle");
        uint64_t step0 = t0;
        double cpu_step0 = cpu0;
        auto step = [&] {
            uint64_t now = nowNs();
            double cpu = cpuSeconds();
            c.step_s.push_back(
                static_cast<double>(now - step0 - step_untimed_ns) * 1e-9);
            c.step_cpu_s.push_back(cpu - cpu_step0 - step_untimed_cpu);
            step0 = now;
            cpu_step0 = cpu;
            untimed_ns += step_untimed_ns;
            untimed_cpu += step_untimed_cpu;
            step_untimed_ns = 0;
            step_untimed_cpu = 0;
        };
        std::vector<ProcId> before;
        for (const auto &round : in.rounds) {
            for (ProcId pid : round.arrivals) {
                Scoped span(rec, "service.attach", pid);
                svc.attach(pid);
            }
            {
                Scoped span(rec, "service.submit", round.batch.size());
                svc.submitMany(round.batch.data(), round.batch.size());
            }
            {
                Scoped span(rec, "service.pump");
                double p0 = rec ? cpuSeconds() : 0.0;
                svc.pump(kPumpJobs);
                if (rec)
                    c.pump_cpu_s += cpuSeconds() - p0;
            }
            untimed([&] {
                for (ProcId pid : round.sinks)
                    log.read(svc, pid);
                before = ResultLog::live(svc);
            });
            {
                Scoped span(rec, "service.maintain");
                svc.maintain();
            }
            untimed([&] { log.closeShed(svc, before); });
            step();
        }
        c.check_us.reserve(kTenants);
        for (unsigned t = 0; t < kTenants; ++t) {
            Scoped span(rec, "service.check", t + 1);
            uint64_t c0 = nowNs();
            svc.checkSinkNow(t + 1, in.probes[t].start, in.probes[t].end,
                             kProbeIdBase);
            c.check_us.push_back(static_cast<double>(nowNs() - c0) / 1e3);
        }
        step();
    }
    c.wall_s = static_cast<double>(nowNs() - t0 - untimed_ns) * 1e-9;
    c.allocs = allocCount() - a0;
    c.cpu_s = cpuSeconds() - cpu0 - untimed_cpu;
    c.stats = svc.stats();

    // Verification: every sink result of every session against the
    // reference, in order.
    for (const auto &info : svc.sessions())
        if (info.pid <= kTenants && info.degraded)
            ++c.degraded;
    for (unsigned t = 0; t < kTenants; ++t) {
        log.read(svc, t + 1);
        log.close(t + 1);
        const auto &got = log.of(t + 1);
        const auto &want = ref[t];
        if (got.size() != want.size()) {
            ++c.tally.mismatch;
            continue;
        }
        for (size_t s = 0; s < got.size(); ++s)
            c.tally.compare(got[s].first, want[s], got[s].second);
    }
    return c;
}

void
account(const Cycle &c, Result &res)
{
    res.attempted += c.stats.submitted + c.tally.checked;
    res.failed += c.tally.failures() + c.stats.overflowed;
}

int
traced(const Args &args, const Inputs &in,
       const std::vector<std::vector<core::SinkVerdict>> &ref,
       double session_bytes, Result &res)
{
    LayerMetrics m;
    m.session_bytes = session_bytes;
    m.sim_capture_s = in.capture_s;
    m.sim_capture_records_per_s =
        static_cast<double>(in.records) / in.capture_s;
    m.events_from_trace_s = in.events_from_trace_s;

    Cycle plain = runCycle(in, ref, nullptr);
    account(plain, res);
    m.alloc_per_event = static_cast<double>(plain.allocs) /
        static_cast<double>(plain.stats.submitted);
    Result::info("exact counters: allocations=%" PRIu64 " over %" PRIu64
                 " events (one cycle)",
                 plain.allocs, plain.stats.submitted);

    SpanRecorder rec;
    Cycle tr = runCycle(in, ref, &rec);
    account(tr, res);
    const double wall_ns = tr.wall_s * 1e9;
    m.explained_frac = reconcileLedger(rec, "service_churn", wall_ns, res);
    m.trace_overhead_frac = tr.wall_s / plain.wall_s - 1.0;
    Result::info("tracing overhead: traced %.3f s vs untraced %.3f s",
                 tr.wall_s, plain.wall_s);
    const double drained = static_cast<double>(tr.stats.drained);
    m.submit_ns_per_event =
        static_cast<double>(rec.totalNs("service.submit")) / drained;
    m.pump_ns_per_event =
        static_cast<double>(rec.totalNs("service.pump")) / drained;
    m.cpu_util = tr.pump_cpu_s /
        (static_cast<double>(rec.totalNs("service.pump")) * 1e-9 * kPumpJobs);
    m.check_us_p99 = quantile(rec.durationsUs("service.check"), 0.99);
    m.attach_us_p99 = quantile(rec.durationsUs("service.attach"), 0.99);
    m.maintain_ms = median(rec.durationsUs("service.maintain")) / 1e3;
    m.evicted = static_cast<double>(plain.stats.evicted);
    m.degraded_frac = static_cast<double>(plain.degraded) / kTenants;
    m.overflowed =
        static_cast<double>(plain.stats.overflowed + tr.stats.overflowed);
    m.sink_samples = static_cast<double>(plain.check_us.size());
    rec.write(spansPath(args), "cycle", false);

    // core.tracker / core.storage on the same tenant streams.
    auto tenants = in.tenants;
    for (unsigned t = 0; t < kTenants; ++t) {
        ServiceEvent check;
        check.pid = t + 1;
        check.kind = EventKind::Sink;
        check.start = in.probes[t].start;
        check.end = in.probes[t].end;
        check.id = kProbeIdBase;
        tenants[t].push_back(check);
    }
    SpanRecorder srec;
    StorageProbe probe = probeStorage(tenants, &srec);
    if (!probe.identical) {
        res.correct = false;
        ++res.failed;
    }
    fillStorageLayer(m, probe);
    // pump() drains on kPumpJobs threads: compare with its CPU time.
    m.pump_explained_frac = probe.plain_wall_ns * 1e-9 / tr.pump_cpu_s;
    srec.write(spansPath(args), "storage_probe", true);

    m.failed_frac = static_cast<double>(res.failed) /
        static_cast<double>(res.attempted);
    emitLayerMetrics(res, m);
    return 0;
}

} // namespace

int
runServiceChurn(const Args &args)
{
    Result res;
    double session_bytes = args.trace ? sessionBytes() : 0.0;
    Inputs in;
    std::vector<double> setup_times;
    std::vector<uint64_t> hashes;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        in = Inputs{};
        in = setUp(args.seed);
        setup_times.push_back(in.setup_s);
        hashes.push_back(in.hash);
    }
    for (uint64_t h : hashes)
        if (h != in.hash) {
            Result::info("stream generation is not deterministic");
            res.correct = false;
        }
    Result::info("service_churn: seed %" PRIu64 ", stream hash %016" PRIx64
                 ", %u tenants, %" PRIu64 " events in %zu rounds, ceiling %"
                 PRIu64 " B, pump jobs %u",
                 args.seed, in.hash, kTenants, in.events, in.rounds.size(),
                 kCeiling, kPumpJobs);
    {
        auto apps = captureRegistry();
        if (!referenceMatchesGroundTruth(apps))
            return 3;
    }
    const auto ref = referenceVerdicts(in);

    if (args.trace) {
        int rc = traced(args, in, ref, session_bytes, res);
        res.print();
        return rc;
    }

    // Every cycle runs identical rounds, so each round's quiet
    // cost across cycles (common.hh) sums to a quiet cycle.
    std::vector<std::vector<double>> step_s(in.rounds.size() + 1),
        step_cpu_s(in.rounds.size() + 1);
    // tenant_us[t]: tenant t's final check in every cycle. Cycles are
    // identical, so each check repeats the same work on the same state.
    std::vector<std::vector<double>> tenant_us(kTenants);
    std::vector<double> check_us, cycle_p99_us;
    uint64_t evicted = 0, events = 0;
    size_t cycles = 0;
    const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9);
    const uint64_t start = nowNs();
    do {
        Cycle c = runCycle(in, ref, nullptr);
        account(c, res);
        for (size_t r = 0; r < c.step_s.size(); ++r) {
            step_s[r].push_back(c.step_s[r]);
            step_cpu_s[r].push_back(c.step_cpu_s[r]);
        }
        for (unsigned t = 0; t < kTenants; ++t)
            tenant_us[t].push_back(c.check_us[t]);
        check_us.insert(check_us.end(), c.check_us.begin(), c.check_us.end());
        cycle_p99_us.push_back(quantile(c.check_us, 0.99));
        events = c.stats.drained;
        evicted += c.stats.evicted;
        Result::info("cycle %zu: %.3f s, %.0f events/s, evicted %" PRIu64
                     ", degraded %" PRIu64 ", verdicts %" PRIu64 ": fp=%"
                     PRIu64 " silent_fn=%" PRIu64 " mismatch=%" PRIu64
                     " maybe_ok=%" PRIu64,
                     ++cycles, c.wall_s,
                     static_cast<double>(c.stats.drained) / c.wall_s,
                     c.stats.evicted,
                     c.degraded, c.tally.checked, c.tally.fp, c.tally.silent_fn,
                     c.tally.mismatch, c.tally.maybe_ok);
    } while (nowNs() - start < budget);
    if (res.failed)
        res.correct = false;

    EndToEnd e;
    e.setup_s = median(setup_times);
    double quiet_s = 0, quiet_cpu_s = 0;
    for (size_t r = 0; r < step_s.size(); ++r) {
        quiet_s += quietCost(step_s[r]);
        quiet_cpu_s += quietCost(step_cpu_s[r]);
    }
    e.events_per_s = static_cast<double>(events) / quiet_s;
    // As offline_grid does per app: each tenant's check latency is its
    // quiet value over cycles, and p50/p99 are taken over the tenants.
    std::vector<double> quiet_us;
    for (const auto &us : tenant_us)
        quiet_us.push_back(quietCost(us));
    e.sink_p50_us = quantile(quiet_us, 0.50);
    e.sink_p99_us = quantile(quiet_us, 0.99);
    e.cpu_us_per_event = quiet_cpu_s * 1e6 / static_cast<double>(events);
    Result::info("service_churn: %zu cycles, %zu sink samples (%u tenants "
                 "x cycles), %zu tenants above p99; unfiltered: p99 of all "
                 "samples %.1f us, median cycle p99 %.1f us, worst cycle "
                 "p99 %.1f us; %" PRIu64 " evictions",
                 cycles, check_us.size(), kTenants,
                 countAbove(quiet_us, e.sink_p99_us),
                 quantile(check_us, 0.99), median(cycle_p99_us),
                 *std::max_element(cycle_p99_us.begin(), cycle_p99_us.end()),
                 evicted);
    emitEndToEnd(res, e);
    res.print();
    return 0;
}

} // namespace perfbench
