/**
 * @file
 * What every workload reports: the end-to-end metric set (untraced
 * run) and the per-layer ledger (traced run), plus the traced run's
 * shared core.storage/core.tracker probe over tenant streams.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "core/taint_storage.hh"
#include "ledger.hh"
#include "streams.hh"

namespace perfbench
{

struct EndToEnd
{
    double setup_s = 0;
    double events_per_s = 0;
    double sink_p50_us = 0;
    double sink_p99_us = 0;
    double cpu_us_per_event = 0;
};

/** Emit the end-to-end metrics (peak RSS read at the call). */
void emitEndToEnd(Result &res, const EndToEnd &e);

/**
 * The per-layer ledger. A layer a workload does not exercise reports
 * 0 (offline_grid makes no core.storage or service calls; the closed
 * loops have no generator lateness).
 */
struct LayerMetrics
{
    double sim_capture_s = 0, sim_capture_records_per_s = 0;
    double events_from_trace_s = 0, sim_pack_s = 0;
    double tracker_batched_eps = 0, tracker_per_event_eps = 0;
    double windows_per_kevent = 0, taints_per_kevent = 0,
           untaints_per_kevent = 0;
    double storage_query_ns = 0, storage_insert_ns = 0,
           storage_remove_ns = 0, storage_totals_ns = 0;
    double storage_busy_frac = 0, storage_calls_per_event = 0;
    double entry_compares_per_event = 0, probe_memo_hit_frac = 0;
    double max_entries_used = 0, evictions_per_kevent = 0,
           spill_hits_per_kevent = 0, session_bytes = 0;
    double range_store_busy_frac = 0;
    double submit_ns_per_event = 0, pump_ns_per_event = 0,
           cpu_util = 0;
    double check_us_p99 = 0, backlog_p99 = 0, attach_us_p99 = 0,
           maintain_ms = 0;
    double evicted = 0, degraded_frac = 0, overflowed = 0;
    double gen_late_p99_us = 0, alloc_per_event = 0;
    double explained_frac = 0, trace_overhead_frac = 0,
           pump_explained_frac = 0;
    double failed_frac = 0, sink_samples = 0;
};

void emitLayerMetrics(Result &res, const LayerMetrics &m);

/**
 * Least share of a traced phase's wall time the named layers' self
 * times must explain; the rest is unattributed benchmark loop time.
 */
constexpr double kLedgerTolerance = 0.05;

/**
 * Check and print the ledger of one traced phase: the self time of
 * every layer under the root span @p root, and their sum against the
 * phase's wall time. @return the explained fraction.
 */
double reconcileLedger(const SpanRecorder &rec, const char *root,
                       double wall_ns, Result &res);

/** Outcome of replaying tenant streams through TimedStore(TaintStorage). */
struct StorageProbe
{
    StoreTimes times;
    core::StorageStats stats;   //!< summed over tenants (max for peaks)
    core::TrackerStats tracker; //!< summed over tenants
    uint64_t events = 0, mem_events = 0;
    double timed_wall_ns = 0;   //!< replays through the decorator
    double plain_wall_ns = 0;   //!< the same replays without it
    bool identical = true;      //!< decorator changed nothing
};

/**
 * Replay each tenant stream through a TenantTracker twice — over a
 * TimedStore wrapping a default TaintStorage (spans
 * "core.tracker.replay") and over a bare TaintStorage — and check
 * that sink results and StorageStats are identical.
 */
StorageProbe probeStorage(
    const std::vector<std::vector<ServiceEvent>> &tenants,
    SpanRecorder *rec);

/** Fill the core.storage/core.tracker ledger rows from a probe. */
void fillStorageLayer(LayerMetrics &m, const StorageProbe &p);

/**
 * Bytes of resident memory per attached idle session: peak RSS grown
 * by attaching @p sessions to a fresh service. Call first thing in
 * the process, while peak RSS still equals current RSS.
 */
double sessionBytes(unsigned sessions = 2048);

/** Where the traced run writes its spans (inside .bench_build/). */
std::string spansPath(const Args &args);

/** Setup repetitions per run (setup_s is their median). */
constexpr int kSetupReps = 9;

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
