/**
 * @file
 * offline_grid — the researcher's Figure 11 sweep, closed loop on one
 * thread: analysis::accuracyGrid over every registry app (NI 1-20 x
 * NT 1-3, untaint on, --jobs 1), repeated for the run length. Each
 * call sweeps one app, so the latency of a call is the time that
 * app's 60 verdicts take ("sink" latency here). Every verdict of
 * every call is then checked against a per-event sim::replay on an
 * IdealRangeStore.
 *
 * The work is sim packing, core.tracker and the IdealRangeStore —
 * no core.storage and no service calls.
 */

#include <cinttypes>

#include "analysis/evaluate.hh"
#include "core/pift_tracker.hh"
#include "report.hh"
#include "sim/batch.hh"

namespace perfbench
{

namespace
{

constexpr int kNiHi = 20;
constexpr int kNtHi = 3;
constexpr size_t kCells = static_cast<size_t>(kNiHi) * kNtHi;


core::PiftParams
cellParams(size_t cell)
{
    core::PiftParams p;
    p.nt = static_cast<unsigned>(cell / kNiHi) + 1;
    p.ni = static_cast<unsigned>(cell % kNiHi) + 1;
    p.untaint = true;
    return p;
}

/** Detected bit per cell from a one-app accuracyGrid result. */
std::vector<uint8_t>
detections(const std::vector<analysis::Accuracy> &grid)
{
    std::vector<uint8_t> out(grid.size());
    for (size_t c = 0; c < grid.size(); ++c)
        out[c] = grid[c].tp + grid[c].fp > 0;
    return out;
}

struct Inputs
{
    std::vector<RegistryApp> apps;
    /** One single-app set per app, the unit accuracyGrid sweeps. */
    std::vector<std::vector<analysis::LabelledTrace>> sets;
    uint64_t hash = 0;
    double capture_s = 0;
    double setup_s = 0;
};

Inputs
setUp()
{
    Inputs in;
    uint64_t t0 = nowNs();
    in.apps = captureRegistry();
    in.capture_s = static_cast<double>(nowNs() - t0) * 1e-9;
    for (const auto &app : in.apps)
        in.sets.push_back({{app.name, app.leaks, app.trace}});
    in.setup_s = static_cast<double>(nowNs() - t0) * 1e-9;
    in.hash = registryHash(in.apps);
    return in;
}

/** Per-event reference detections, [app][cell]. */
std::vector<std::vector<uint8_t>>
referenceDetections(const std::vector<RegistryApp> &apps)
{
    std::vector<std::vector<uint8_t>> ref(apps.size(),
                                          std::vector<uint8_t>(kCells));
    for (size_t a = 0; a < apps.size(); ++a) {
        for (size_t c = 0; c < kCells; ++c) {
            core::IdealRangeStore store;
            core::PiftTracker tracker(cellParams(c), store);
            sim::replay(apps[a].trace, tracker);
            ref[a][c] = tracker.anyLeak();
        }
    }
    return ref;
}

int
traced(const Args &args, Inputs &in, Result &res)
{
    LayerMetrics m;
    const uint64_t records = registryRecords(in.apps);
    m.sim_capture_s = in.capture_s;
    m.sim_capture_records_per_s = static_cast<double>(records) / in.capture_s;

    // Untraced reference pass: one accuracyGrid call per app.
    uint64_t a0 = allocCount();
    uint64_t t0 = nowNs();
    std::vector<std::vector<uint8_t>> grid_det;
    for (const auto &set : in.sets)
        grid_det.push_back(
            detections(analysis::accuracyGrid(set, kNiHi, kNtHi, true, 1)));
    double untraced_ns = static_cast<double>(nowNs() - t0);
    m.alloc_per_event = static_cast<double>(allocCount() - a0) /
        static_cast<double>(records * kCells);
    Result::info("exact counters: allocations=%" PRIu64
                 " over %" PRIu64 " replayed records",
                 allocCount() - a0, records * kCells);

    // Traced pass: the same sweep decomposed into its public calls.
    // Each replay's storage calls are logged, then replayed alone to
    // time the IdealRangeStore share; that replay is not part of the
    // workload, so its time is taken out of the phase's wall time.
    SpanRecorder rec;
    uint64_t range_store_ns = 0, oplog_wall_ns = 0;
    double traced_ns = 0;
    {
        uint64_t p0 = nowNs();
        Scoped root(&rec, "bench.grid");
        for (size_t a = 0; a < in.apps.size(); ++a) {
            uint32_t pack = rec.begin("sim.pack", a);
            sim::PackedTrace packed(in.apps[a].trace);
            rec.end(pack);
            for (size_t c = 0; c < kCells; ++c) {
                core::IdealRangeStore ideal;
                OpLogStore store(ideal);
                core::PiftTracker tracker(cellParams(c), store);
                uint32_t span = rec.begin("core.tracker.replay", a);
                sim::replayBatched(packed, tracker);
                rec.end(span);
                uint64_t o0 = nowNs();
                {
                    core::IdealRangeStore fresh;
                    uint64_t ns = store.replayInto(fresh);
                    rec.leafInto(span, "core.range_store", ns);
                    range_store_ns += ns;
                }
                oplog_wall_ns += nowNs() - o0;
                if (tracker.anyLeak() != (grid_det[a][c] != 0)) {
                    ++res.failed;
                    res.correct = false;
                }
                ++res.attempted;
            }
        }
        traced_ns = static_cast<double>(nowNs() - p0 - oplog_wall_ns);
    }
    auto self = rec.selfNs();
    m.sim_pack_s = static_cast<double>(rec.totalNs("sim.pack")) * 1e-9;
    m.tracker_batched_eps = static_cast<double>(records * kCells) /
        (static_cast<double>(self["core.tracker"]) * 1e-9);
    m.range_store_busy_frac = static_cast<double>(range_store_ns) / traced_ns;
    m.explained_frac = reconcileLedger(rec, "offline_grid", traced_ns, res);
    Result::info("  (self bench holds the %.3f ms of op-log replays, which "
                 "are outside the wall)",
                 static_cast<double>(oplog_wall_ns) / 1e6);
    m.trace_overhead_frac = traced_ns / untraced_ns - 1.0;
    Result::info("tracing overhead: traced %.3f ms vs untraced %.3f ms",
                 traced_ns / 1e6, untraced_ns / 1e6);

    // Per-event path (sim::replay -> onRecord) at the paper default.
    core::TrackerStats ts;
    uint64_t pe_ns = 0, pe_store_ns = 0, pe_mem = 0;
    for (const auto &app : in.apps) {
        core::IdealRangeStore ideal;
        OpLogStore store(ideal);
        core::PiftTracker tracker(core::PiftParams{}, store);
        uint64_t s0 = nowNs();
        sim::replay(app.trace, tracker);
        pe_ns += nowNs() - s0;
        core::IdealRangeStore fresh;
        pe_store_ns += store.replayInto(fresh);
        const auto &st = tracker.stats();
        ts.tainted_loads += st.tainted_loads;
        ts.taint_ops += st.taint_ops;
        ts.untaint_ops += st.untaint_ops;
        pe_mem += st.loads + st.stores;
    }
    m.tracker_per_event_eps = static_cast<double>(records) /
        (static_cast<double>(pe_ns - pe_store_ns) * 1e-9);
    const double kev = static_cast<double>(pe_mem) / 1e3;
    m.windows_per_kevent = static_cast<double>(ts.tainted_loads) / kev;
    m.taints_per_kevent = static_cast<double>(ts.taint_ops) / kev;
    m.untaints_per_kevent = static_cast<double>(ts.untaint_ops) / kev;
    Result::info("exact counters: mem_events=%" PRIu64
                 " tainted_loads=%" PRIu64 " taint_ops=%" PRIu64
                 " untaint_ops=%" PRIu64 " (registry at NI=13 NT=3)",
                 pe_mem, ts.tainted_loads, ts.taint_ops, ts.untaint_ops);

    m.failed_frac = res.attempted
        ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
        : 0.0;
    m.sink_samples = static_cast<double>(in.apps.size());
    emitLayerMetrics(res, m);
    if (!rec.write(spansPath(args), "grid", false))
        std::fprintf(stderr, "perfbench: could not write spans\n");
    return 0;
}

} // namespace

int
runOfflineGrid(const Args &args)
{
    Result res;
    Inputs in;
    std::vector<uint64_t> hashes;
    std::vector<double> capture_s, setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        in = Inputs{};
        in = setUp();
        hashes.push_back(in.hash);
        capture_s.push_back(in.capture_s);
        setup_times.push_back(in.setup_s);
    }
    const double setup_s = median(setup_times);
    in.capture_s = median(capture_s);
    Result::info("offline_grid: seed %" PRIu64 " (orders the sweeps of the "
                 "fixed registry), registry hash %016" PRIx64 ", %zu apps, %" PRIu64
                 " records",
                 args.seed, in.hash, in.apps.size(), registryRecords(in.apps));
    for (uint64_t h : hashes)
        if (h != in.hash) {
            Result::info("registry capture is not deterministic");
            res.correct = false;
        }
    if (!referenceMatchesGroundTruth(in.apps))
        return 3;

    if (args.trace) {
        int rc = traced(args, in, res);
        res.print();
        return rc;
    }

    // Timed phase: whole passes over the registry, each in a seeded
    // app order, until the run length is used up. Every pass repeats
    // the same 64 calls, so each app's quiet cost (common.hh) in
    // wall and CPU time across passes sums to a quiet pass.
    std::vector<std::pair<size_t, std::vector<uint8_t>>> got;
    const size_t napps = in.sets.size();
    std::vector<std::vector<double>> call_us(napps), call_cpu_s(napps);
    std::vector<double> pass_rates;
    const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9);
    uint64_t rng = args.seed;
    std::vector<size_t> order(napps);
    const uint64_t t0 = nowNs();
    while (nowNs() - t0 < budget) {
        for (size_t i = 0; i < napps; ++i)
            order[i] = i;
        for (size_t i = napps; i > 1; --i)
            std::swap(order[i - 1], order[splitmix(rng) % i]);
        const uint64_t p0 = nowNs();
        for (size_t a : order) {
            const double cpu0 = cpuSeconds();
            const uint64_t c0 = nowNs();
            auto grid =
                analysis::accuracyGrid(in.sets[a], kNiHi, kNtHi, true, 1);
            call_us[a].push_back(static_cast<double>(nowNs() - c0) / 1e3);
            call_cpu_s[a].push_back(cpuSeconds() - cpu0);
            got.push_back({a, detections(grid)});
        }
        pass_rates.push_back(static_cast<double>(registryRecords(in.apps) *
                                                 kCells) /
                             (static_cast<double>(nowNs() - p0) * 1e-9));
    }
    double quiet_us = 0, quiet_cpu_s = 0;
    std::vector<double> app_us;
    for (size_t a = 0; a < napps; ++a) {
        app_us.push_back(quietCost(call_us[a]));
        quiet_us += app_us.back();
        quiet_cpu_s += quietCost(call_cpu_s[a]);
    }
    const double pass_records =
        static_cast<double>(registryRecords(in.apps) * kCells);

    // Verification, outside the timed phase.
    auto ref = referenceDetections(in.apps);
    for (const auto &[a, det] : got) {
        for (size_t c = 0; c < kCells; ++c) {
            ++res.attempted;
            if (det[c] != ref[a][c])
                ++res.failed;
        }
    }
    if (res.failed)
        res.correct = false;

    EndToEnd e;
    e.setup_s = setup_s;
    e.events_per_s = pass_records / (quiet_us * 1e-6);
    e.sink_p50_us = quantile(app_us, 0.50);
    e.sink_p99_us = quantile(app_us, 0.99);
    e.cpu_us_per_event = quiet_cpu_s * 1e6 / pass_records;
    std::string per_pass;
    for (double r : pass_rates)
        per_pass += " " + std::to_string(static_cast<int64_t>(r / 1e6));
    Result::info("offline_grid: %zu passes, %zu sweep-latency samples; "
                 "M records/s per pass:%s; %" PRIu64 "/%" PRIu64
                 " verdicts differ from the reference",
                 pass_rates.size(), got.size(), per_pass.c_str(), res.failed,
                 res.attempted);
    emitEndToEnd(res, e);
    res.print();
    return 0;
}

} // namespace perfbench
