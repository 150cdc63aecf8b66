#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

#include <sys/resource.h>

#include "core/pift_tracker.hh"
#include "droidbench/app.hh"

// Global allocation counter: every allocation of the benchmark binary
// (library code included) goes through these two operators, so
// allocations per event is an exact, machine-independent count.
namespace
{
std::atomic<uint64_t> g_allocs{0};
}

void *
operator new(size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

namespace perfbench
{

uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t
timerOverheadNs()
{
    static const uint64_t overhead = [] {
        std::vector<double> d;
        for (int i = 0; i < 20001; ++i) {
            uint64_t t0 = nowNs();
            d.push_back(static_cast<double>(nowNs() - t0));
        }
        return static_cast<uint64_t>(median(std::move(d)));
    }();
    return overhead;
}

double
cpuSeconds()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

size_t
countAbove(const std::vector<double> &v, double threshold)
{
    return static_cast<size_t>(
        std::count_if(v.begin(), v.end(),
                      [&](double x) { return x > threshold; }));
}

uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::vector<RegistryApp>
captureRegistry()
{
    std::vector<RegistryApp> out;
    auto add = [&](const std::vector<droidbench::AppEntry> &entries) {
        for (const auto &entry : entries) {
            auto run = droidbench::runApp(entry);
            out.push_back({entry.name, entry.leaks, std::move(run.trace)});
        }
    };
    add(droidbench::droidBenchApps());
    add(droidbench::malwareApps());
    return out;
}

uint64_t
registryHash(const std::vector<RegistryApp> &apps)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const auto &app : apps) {
        for (const auto &r : app.trace.records) {
            const uint64_t f[] = {r.seq, r.local_seq, r.pid, r.pc,
                                  static_cast<uint64_t>(r.mem_kind),
                                  r.mem_start, r.mem_end};
            h = fnv1a(f, sizeof f, h);
        }
        for (const auto &c : app.trace.controls) {
            const uint64_t f[] = {c.seq, static_cast<uint64_t>(c.kind),
                                  c.pid, c.start, c.end, c.id};
            h = fnv1a(f, sizeof f, h);
        }
    }
    return h;
}

uint64_t
registryRecords(const std::vector<RegistryApp> &apps)
{
    uint64_t n = 0;
    for (const auto &app : apps)
        n += app.trace.records.size();
    return n;
}

bool
referenceMatchesGroundTruth(const std::vector<RegistryApp> &apps)
{
    bool ok = true;
    for (const auto &app : apps) {
        core::IdealRangeStore store;
        core::PiftTracker tracker(core::PiftParams{}, store);
        sim::replay(app.trace, tracker);
        bool detected = tracker.anyLeak();
        if (detected == app.leaks)
            continue;
        bool expected_miss =
            app.leaks && app.name == "ImplicitFlow2_Http";
        if (!expected_miss) {
            std::fprintf(stderr,
                         "perfbench: reference disagrees with ground "
                         "truth at (13,3) on %s (label %s)\n",
                         app.name.c_str(), app.leaks ? "leaky" : "benign");
            ok = false;
        }
    }
    return ok;
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value))
        value = 0.0;
    metrics_.push_back({name, {value, unit}});
}

void
Result::info(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
}

void
Result::print() const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const auto &[name, vu] = metrics_[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), vu.first,
                    vu.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void
VerdictTally::compare(core::SinkVerdict got, core::SinkVerdict want,
                      bool degraded)
{
    using core::SinkVerdict;
    ++checked;
    if (got == want)
        return;
    if (got == SinkVerdict::Tainted && want == SinkVerdict::Clean)
        ++fp;
    else if (got == SinkVerdict::Clean)
        ++silent_fn; // a loss that answered Clean, or a lost overlap
    else if (got == SinkVerdict::MaybeTainted && degraded)
        ++maybe_ok;
    else
        ++mismatch;
}

} // namespace perfbench
