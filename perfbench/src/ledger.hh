/**
 * @file
 * The traced run's instruments: an in-memory span recorder that the
 * workloads wrap around every public call into a layer, and a
 * core::TaintStore decorator that times the storage calls a tracker
 * makes. Both live only in the benchmark; the library is unchanged.
 *
 * Span names are "<layer>.<call>"; a layer's self time is the summed
 * duration of its spans minus the part of each covered by child
 * spans or by decorator-timed storage calls.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "core/taint_store.hh"

namespace perfbench
{

class SpanRecorder
{
  public:
    /** Open a span; @p tenant is the pid or request id (0 = none). */
    uint32_t begin(const char *name, uint64_t tenant = 0);
    void end(uint32_t id);

    /**
     * Time spent in an un-spanned leaf call (a storage call timed by
     * TimedStore) inside the innermost open span.
     */
    void leaf(const char *layer, uint64_t ns);

    /**
     * Re-book @p ns of closed span @p id's self time as a leaf of
     * @p layer (work measured apart from the span, see OpLogStore).
     */
    void leafInto(uint32_t id, const char *layer, uint64_t ns);

    /** Self nanoseconds per layer ("sim", "service", "core.storage"...). */
    std::map<std::string, uint64_t> selfNs() const;

    /** Summed duration of the spans named @p name. */
    uint64_t totalNs(const std::string &name) const;

    /** Durations of every span named @p name, microseconds. */
    std::vector<double> durationsUs(const std::string &name) const;

    /**
     * Write the recorded spans as JSON lines, tagged with @p phase.
     * @return false on error.
     */
    bool write(const std::string &path, const char *phase,
               bool append) const;

  private:
    struct Span
    {
        const char *name;
        uint32_t parent; //!< index + 1 (0 = root)
        uint64_t tenant;
        uint64_t start, end;
        uint64_t child_ns;
    };

    static std::string layerOf(const char *name);

    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
    std::map<std::string, uint64_t> self_;
    /** leaf() totals by layer-name pointer (one or two entries). */
    std::vector<std::pair<const char *, uint64_t>> leaf_;
};

/** RAII span; a null recorder makes it free (untraced runs). */
class Scoped
{
  public:
    Scoped(SpanRecorder *rec, const char *name, uint64_t tenant = 0)
        : rec_(rec), id_(rec ? rec->begin(name, tenant) : 0)
    {}
    ~Scoped()
    {
        if (rec_)
            rec_->end(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder *rec_;
    uint32_t id_;
};

/** Call counts and nanoseconds per storage operation. */
struct StoreTimes
{
    uint64_t query_calls = 0, insert_calls = 0, remove_calls = 0,
             totals_calls = 0;
    uint64_t query_ns = 0, insert_ns = 0, remove_ns = 0, totals_ns = 0;

    uint64_t primaryCalls() const
    {
        return query_calls + insert_calls + remove_calls;
    }
    uint64_t busyNs() const
    {
        return query_ns + insert_ns + remove_ns + totals_ns;
    }
    void add(const StoreTimes &o);
};

/**
 * Forwarding TaintStore that times calls into @p inner and, when a
 * recorder is given, books the time as a "core.storage" leaf of the
 * enclosing span. Behaviour is the inner store's.
 *
 * Each call is charged its reading minus timerOverheadNs(). Meant
 * for calls of microseconds (TaintStorage); for calls of tens of ns
 * the clock reads would swamp them — see OpLogStore.
 */
class TimedStore : public core::TaintStore
{
  public:
    TimedStore(core::TaintStore &inner, SpanRecorder *rec)
        : inner_(inner), rec_(rec), overhead_(timerOverheadNs())
    {}

    bool query(ProcId pid, const taint::AddrRange &r) override;
    bool insert(ProcId pid, const taint::AddrRange &r) override;
    bool remove(ProcId pid, const taint::AddrRange &r) override;
    void clear() override { inner_.clear(); }
    uint64_t bytes() const override;
    size_t rangeCount() const override;
    bool saturated(ProcId pid) const override
    {
        return inner_.saturated(pid);
    }
    void clearSaturation() override { inner_.clearSaturation(); }

    const StoreTimes &times() const { return t_; }

  private:
    /** Run and time @p op. */
    template <typename Op>
    auto timed(uint64_t &calls, uint64_t &ns, Op &&op) const;

    core::TaintStore &inner_;
    SpanRecorder *rec_;
    uint64_t overhead_;
    mutable StoreTimes t_;
};

/**
 * Forwarding TaintStore that logs every call. Replaying the log
 * alone against a fresh store of the same kind times the storage
 * share of a replay without a clock read per call, which would
 * swamp calls of tens of ns (IdealRangeStore).
 */
class OpLogStore : public core::TaintStore
{
  public:
    explicit OpLogStore(core::TaintStore &inner) : inner_(inner) {}

    bool query(ProcId pid, const taint::AddrRange &r) override;
    bool insert(ProcId pid, const taint::AddrRange &r) override;
    bool remove(ProcId pid, const taint::AddrRange &r) override;
    void clear() override;
    uint64_t bytes() const override;
    size_t rangeCount() const override;
    bool saturated(ProcId pid) const override
    {
        return inner_.saturated(pid);
    }
    void clearSaturation() override { inner_.clearSaturation(); }

    /** Nanoseconds @p fresh takes to serve the logged calls. */
    uint64_t replayInto(core::TaintStore &fresh) const;

  private:
    enum class Kind : uint8_t { Query, Insert, Remove, Clear, Bytes, Ranges };
    struct Op
    {
        Kind kind;
        ProcId pid;
        Addr start, end;
    };

    core::TaintStore &inner_;
    mutable std::vector<Op> ops_;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
