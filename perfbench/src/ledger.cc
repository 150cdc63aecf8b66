#include "ledger.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

uint32_t
SpanRecorder::begin(const char *name, uint64_t tenant)
{
    uint32_t parent = open_.empty() ? 0 : open_.back() + 1;
    spans_.push_back({name, parent, tenant, nowNs(), 0, 0});
    uint32_t id = static_cast<uint32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(uint32_t id)
{
    Span &s = spans_[id];
    s.end = nowNs();
    open_.pop_back();
    uint64_t dur = s.end - s.start;
    self_[layerOf(s.name)] += dur - std::min(dur, s.child_ns);
    if (s.parent)
        spans_[s.parent - 1].child_ns += dur;
}

void
SpanRecorder::leaf(const char *layer, uint64_t ns)
{
    auto it = std::find_if(leaf_.begin(), leaf_.end(),
                           [&](const auto &e) { return e.first == layer; });
    if (it == leaf_.end())
        leaf_.push_back({layer, ns});
    else
        it->second += ns;
    if (!open_.empty())
        spans_[open_.back()].child_ns += ns;
}

void
SpanRecorder::leafInto(uint32_t id, const char *layer, uint64_t ns)
{
    Span &s = spans_[id];
    uint64_t dur = s.end - s.start;
    uint64_t self = dur - std::min(dur, s.child_ns);
    ns = std::min(ns, self);
    s.child_ns += ns;
    self_[layerOf(s.name)] -= ns;
    leaf_.push_back({layer, 0});
    leaf_.back().second = ns;
    // Merge with an earlier entry of the same layer, if any.
    for (size_t i = 0; i + 1 < leaf_.size(); ++i)
        if (leaf_[i].first == layer) {
            leaf_[i].second += ns;
            leaf_.pop_back();
            break;
        }
}

std::map<std::string, uint64_t>
SpanRecorder::selfNs() const
{
    auto out = self_;
    for (const auto &[layer, ns] : leaf_)
        out[layer] += ns;
    return out;
}

std::string
SpanRecorder::layerOf(const char *name)
{
    std::string n(name);
    size_t dot = n.rfind('.');
    return dot == std::string::npos ? n : n.substr(0, dot);
}

uint64_t
SpanRecorder::totalNs(const std::string &name) const
{
    uint64_t t = 0;
    for (const auto &s : spans_)
        if (name == s.name)
            t += s.end - s.start;
    return t;
}

std::vector<double>
SpanRecorder::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.end - s.start) / 1e3);
    return out;
}

bool
SpanRecorder::write(const std::string &path, const char *phase,
                    bool append) const
{
    FILE *f = std::fopen(path.c_str(), append ? "a" : "w");
    if (!f)
        return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"phase\": \"%s\", \"id\": %zu, "
                     "\"name\": \"%s\", \"parent\": %u, "
                     "\"tenant\": %llu, \"start_ns\": %llu, "
                     "\"end_ns\": %llu}\n",
                     phase, i + 1, s.name, s.parent,
                     static_cast<unsigned long long>(s.tenant),
                     static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.end));
    }
    return std::fclose(f) == 0;
}

void
StoreTimes::add(const StoreTimes &o)
{
    query_calls += o.query_calls;
    insert_calls += o.insert_calls;
    remove_calls += o.remove_calls;
    totals_calls += o.totals_calls;
    query_ns += o.query_ns;
    insert_ns += o.insert_ns;
    remove_ns += o.remove_ns;
    totals_ns += o.totals_ns;
}

template <typename Op>
auto
TimedStore::timed(uint64_t &calls, uint64_t &ns, Op &&op) const
{
    ++calls;
    uint64_t t0 = nowNs();
    auto r = op();
    uint64_t raw = nowNs() - t0;
    uint64_t dt = raw > overhead_ ? raw - overhead_ : 0;
    ns += dt;
    if (rec_)
        rec_->leaf("core.storage", dt);
    return r;
}

bool
TimedStore::query(ProcId pid, const taint::AddrRange &r)
{
    return timed(t_.query_calls, t_.query_ns,
                 [&] { return inner_.query(pid, r); });
}

bool
TimedStore::insert(ProcId pid, const taint::AddrRange &r)
{
    return timed(t_.insert_calls, t_.insert_ns,
                 [&] { return inner_.insert(pid, r); });
}

bool
TimedStore::remove(ProcId pid, const taint::AddrRange &r)
{
    return timed(t_.remove_calls, t_.remove_ns,
                 [&] { return inner_.remove(pid, r); });
}

uint64_t
TimedStore::bytes() const
{
    return timed(t_.totals_calls, t_.totals_ns,
                 [&] { return inner_.bytes(); });
}

size_t
TimedStore::rangeCount() const
{
    return timed(t_.totals_calls, t_.totals_ns,
                 [&] { return inner_.rangeCount(); });
}

bool
OpLogStore::query(ProcId pid, const taint::AddrRange &r)
{
    ops_.push_back({Kind::Query, pid, r.start, r.end});
    return inner_.query(pid, r);
}

bool
OpLogStore::insert(ProcId pid, const taint::AddrRange &r)
{
    ops_.push_back({Kind::Insert, pid, r.start, r.end});
    return inner_.insert(pid, r);
}

bool
OpLogStore::remove(ProcId pid, const taint::AddrRange &r)
{
    ops_.push_back({Kind::Remove, pid, r.start, r.end});
    return inner_.remove(pid, r);
}

void
OpLogStore::clear()
{
    ops_.push_back({Kind::Clear, 0, 0, 0});
    inner_.clear();
}

uint64_t
OpLogStore::bytes() const
{
    ops_.push_back({Kind::Bytes, 0, 0, 0});
    return inner_.bytes();
}

size_t
OpLogStore::rangeCount() const
{
    ops_.push_back({Kind::Ranges, 0, 0, 0});
    return inner_.rangeCount();
}

uint64_t
OpLogStore::replayInto(core::TaintStore &fresh) const
{
    uint64_t sink = 0;
    uint64_t t0 = nowNs();
    for (const Op &op : ops_) {
        taint::AddrRange r(op.start, op.end);
        switch (op.kind) {
          case Kind::Query: sink += fresh.query(op.pid, r); break;
          case Kind::Insert: sink += fresh.insert(op.pid, r); break;
          case Kind::Remove: sink += fresh.remove(op.pid, r); break;
          case Kind::Clear: fresh.clear(); break;
          case Kind::Bytes: sink += fresh.bytes(); break;
          case Kind::Ranges: sink += fresh.rangeCount(); break;
        }
    }
    uint64_t dt = nowNs() - t0;
    // Keep the results observable so no call is optimised away.
    static volatile uint64_t keep;
    keep = keep + sink;
    return dt;
}

} // namespace perfbench
