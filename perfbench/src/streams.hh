/**
 * @file
 * Tenant event streams for the service workloads, and the exact
 * reference every service verdict is checked against.
 */

#ifndef PERFBENCH_STREAMS_HH
#define PERFBENCH_STREAMS_HH

#include <cstdint>
#include <vector>

#include "common.hh"
#include "core/pift_tracker.hh"
#include "service/service.hh"

namespace perfbench
{

using service::EventKind;
using service::ServiceEvent;

inline bool
isMem(const ServiceEvent &ev)
{
    return ev.kind == EventKind::Load || ev.kind == EventKind::Store;
}

/** Per-app event lists, as service::eventsFromTrace ships them (pid 1). */
std::vector<std::vector<ServiceEvent>>
appEvents(const std::vector<RegistryApp> &apps);

/** FNV-1a over the fields of @p n events, chainable. */
uint64_t streamHash(const ServiceEvent *evs, size_t n,
                    uint64_t h = fnv1a(nullptr, 0));

/** Sink ids of probe checks (app sink ids are small). */
constexpr uint32_t kProbeIdBase = 0x40000000u;

/**
 * One tenant replaying registry apps back to back in a seeded order:
 * a Clear at each app start (the process runs a new app), events
 * re-pidded, local_seq shifted past the previous app's so windows
 * never straddle apps, and a probe sink every @p probe_every memory
 * events on the last stored range. Infinite; next() never ends.
 */
class TenantGen
{
  public:
    TenantGen(const std::vector<std::vector<ServiceEvent>> &apps,
              ProcId pid, uint64_t seed, unsigned probe_every);

    ServiceEvent next();

  private:
    const std::vector<std::vector<ServiceEvent>> &apps_;
    ProcId pid_;
    uint64_t rng_;
    unsigned probe_every_;
    std::vector<size_t> order_;
    size_t app_ = 0;       //!< index into order_
    size_t pos_ = 0;       //!< next event of the current app
    bool started_ = false; //!< Clear of the current app emitted
    SeqNum base_ = 0, max_local_ = 0;
    Addr last_start_ = 0, last_end_ = 3;
    unsigned since_probe_ = 0;
    uint32_t probes_ = 0;
};

/**
 * A tracker fed exactly as service::Session::apply feeds its own:
 * memory events as TraceRecords, the rest as ControlEvents. Over an
 * IdealRangeStore it is the exact reference; over a TimedStore it is
 * the traced run's core.tracker/core.storage probe.
 */
class TenantTracker
{
  public:
    TenantTracker(ProcId pid, core::TaintStore &store,
                  const core::PiftParams &params = {});

    void apply(const ServiceEvent &ev);

    const core::PiftTracker &tracker() const { return tracker_; }

  private:
    ProcId pid_;
    core::PiftTracker tracker_;
    SeqNum fed_ = 0;
};

/** Verdict of the most recent sink check of @p t. */
inline core::SinkVerdict
lastVerdict(const TenantTracker &t)
{
    return t.tracker().sinkResults().back().verdict;
}

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HH
