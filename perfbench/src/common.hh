/**
 * @file
 * Shared plumbing of the repository benchmark: arguments, clocks,
 * process counters, the result line, and the captured registry every
 * workload starts from.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/taint_store.hh"
#include "sim/trace.hh"

namespace perfbench
{

using namespace pift;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Monotonic clock, nanoseconds. */
uint64_t nowNs();

/**
 * What timing an empty interval with two nowNs() calls reads, ns
 * (median, measured once): subtracted from timed calls.
 */
uint64_t timerOverheadNs();

/** Process CPU time (user + sys, getrusage), seconds. */
double cpuSeconds();

/** Peak resident set of the process (getrusage), MiB. */
double peakRssMb();

/** Allocations made through global operator new so far. */
uint64_t allocCount();

/** Quantile @p q in [0,1] by linear interpolation (copies @p v). */
double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/**
 * Interference-rejecting summary of repeated measurements of the same
 * work (min-of-reps, interpolated towards the next reading): the
 * 2nd-percentile cost. Other load on a shared machine only ever adds
 * cost; on a 4-vCPU virtual machine it swings one run's windows by
 * 1.6x in throughput, in phases lasting seconds to minutes, so the
 * quiet end is what repeats from run to run.
 */
inline double quietCost(std::vector<double> v) { return quantile(std::move(v), 0.02); }

/** Samples strictly above @p threshold. */
size_t countAbove(const std::vector<double> &v, double threshold);

/** FNV-1a over raw bytes, chainable. */
uint64_t fnv1a(const void *data, size_t n,
               uint64_t h = 1469598103934665603ull);

/** splitmix64 step — the benchmark's only random source. */
inline uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One captured registry app with its ground-truth label. */
struct RegistryApp
{
    std::string name;
    bool leaks = false;
    sim::Trace trace;
};

/**
 * Capture the 64-app registry (DroidBench suite + malware analogs)
 * through droidbench::runApp, i.e. sim::Cpu driven by dalvik/runtime.
 */
std::vector<RegistryApp> captureRegistry();

/** Hash of every record and control event of every app. */
uint64_t registryHash(const std::vector<RegistryApp> &apps);

/** Records across the registry. */
uint64_t registryRecords(const std::vector<RegistryApp> &apps);

/**
 * Replay every app per-event on an IdealRangeStore at the paper
 * default window (NI=13, NT=3) and compare with ground truth. The
 * one expected disagreement is the documented implicit-flow miss
 * (ImplicitFlow2_Http, EXPERIMENTS.md); anything else means the
 * reference itself is broken. Prints the finding to stderr.
 */
bool referenceMatchesGroundTruth(const std::vector<RegistryApp> &apps);

/** The JSON result line and the human-readable lines before it. */
class Result
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Informational line on stdout (not parsed by tooling). */
    static void info(const char *fmt, ...)
        __attribute__((format(printf, 1, 2)));

    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Print the result object as the last stdout line. */
    void print() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/** Verdict-check tally shared by the workloads. */
struct VerdictTally
{
    uint64_t checked = 0;
    uint64_t fp = 0;        //!< Tainted where the reference is Clean
    uint64_t silent_fn = 0; //!< Clean where the reference is Tainted
    uint64_t mismatch = 0;  //!< any other disagreement
    uint64_t maybe_ok = 0;  //!< MaybeTainted on a degraded tenant

    uint64_t failures() const { return fp + silent_fn + mismatch; }

    /**
     * Compare one service verdict with the reference. @p degraded:
     * the tenant lost state legitimately (eviction), so a
     * MaybeTainted answer is conservative and not a failure.
     */
    void compare(core::SinkVerdict got,
                 core::SinkVerdict want, bool degraded);
};

/** Workload entry points (each returns the process exit code). */
int runOfflineGrid(const Args &args);
int runServiceStream(const Args &args);
int runServiceChurn(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
