#include "streams.hh"

#include <algorithm>

namespace perfbench
{

std::vector<std::vector<ServiceEvent>>
appEvents(const std::vector<RegistryApp> &apps)
{
    std::vector<std::vector<ServiceEvent>> out;
    out.reserve(apps.size());
    for (const auto &app : apps)
        out.push_back(service::eventsFromTrace(app.trace, 1));
    return out;
}

uint64_t
streamHash(const ServiceEvent *evs, size_t n, uint64_t h)
{
    for (size_t i = 0; i < n; ++i) {
        const ServiceEvent &e = evs[i];
        const uint64_t f[] = {e.pid, static_cast<uint64_t>(e.kind),
                              e.start, e.end, e.local_seq, e.id};
        h = fnv1a(f, sizeof f, h);
    }
    return h;
}

TenantGen::TenantGen(const std::vector<std::vector<ServiceEvent>> &apps,
                     ProcId pid, uint64_t seed, unsigned probe_every)
    : apps_(apps), pid_(pid), rng_(seed ^ (0x51ed2701ull * pid)),
      probe_every_(probe_every), order_(apps.size())
{
    for (size_t i = 0; i < order_.size(); ++i)
        order_[i] = i;
    for (size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[splitmix(rng_) % i]);
}

ServiceEvent
TenantGen::next()
{
    if (probe_every_ && since_probe_ >= probe_every_) {
        since_probe_ = 0;
        ServiceEvent probe;
        probe.pid = pid_;
        probe.kind = EventKind::Sink;
        probe.start = last_start_;
        probe.end = last_end_;
        probe.id = kProbeIdBase + probes_++;
        return probe;
    }
    for (;;) {
        const auto &evs = apps_[order_[app_]];
        if (!started_) {
            started_ = true;
            ServiceEvent clear;
            clear.pid = pid_;
            clear.kind = EventKind::Clear;
            return clear;
        }
        if (pos_ < evs.size()) {
            ServiceEvent ev = evs[pos_++];
            ev.pid = pid_;
            if (isMem(ev)) {
                ev.local_seq += base_;
                max_local_ = std::max(max_local_, ev.local_seq);
                ++since_probe_;
                if (ev.kind == EventKind::Store) {
                    last_start_ = ev.start;
                    last_end_ = ev.end;
                }
            }
            return ev;
        }
        // Next app: local_seq continues well past every window.
        base_ = max_local_ + 1000;
        pos_ = 0;
        started_ = false;
        if (++app_ == order_.size()) {
            app_ = 0;
            for (size_t i = order_.size(); i > 1; --i)
                std::swap(order_[i - 1], order_[splitmix(rng_) % i]);
        }
    }
}

TenantTracker::TenantTracker(ProcId pid, core::TaintStore &store,
                             const core::PiftParams &params)
    : pid_(pid), tracker_(params, store)
{}

void
TenantTracker::apply(const ServiceEvent &ev)
{
    if (isMem(ev)) {
        sim::TraceRecord rec;
        rec.seq = ++fed_;
        rec.local_seq = ev.local_seq;
        rec.pid = pid_;
        rec.mem_kind = ev.kind == EventKind::Load ? sim::MemKind::Load
                                                  : sim::MemKind::Store;
        rec.mem_start = ev.start;
        rec.mem_end = ev.end;
        tracker_.onRecord(rec);
        return;
    }
    sim::ControlEvent ctl;
    ctl.seq = fed_;
    ctl.kind = ev.kind == EventKind::Source ? sim::ControlKind::RegisterSource
        : ev.kind == EventKind::Sink        ? sim::ControlKind::CheckSink
                                            : sim::ControlKind::ClearAll;
    ctl.pid = pid_;
    ctl.start = ev.start;
    ctl.end = ev.end;
    ctl.id = ev.id;
    tracker_.onControl(ctl);
}

} // namespace perfbench
