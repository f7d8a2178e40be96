#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

int
Tracer::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    spans_[static_cast<size_t>(id)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    // Spans nest strictly (RAII on one thread), so the closing span is
    // the innermost open one.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    // Child-covered time per parent: children of one parent never
    // overlap (one driving thread), so their durations add.
    std::vector<double> childS(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childS[static_cast<size_t>(s.parent)] +=
                1e-9 * static_cast<double>(s.endNs - s.startNs);
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double d = 1e-9 * static_cast<double>(s.endNs - s.startNs);
        Totals &t = out[s.name];
        ++t.count;
        t.totalS += d;
        t.selfS += d - childS[i];
    }
    return out;
}

double
meanSeconds(const std::map<std::string, Tracer::Totals> &totals,
            const std::string &name)
{
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.totalS / static_cast<double>(it->second.count);
}

void
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &provenance_json) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    "\"traceEvents\": [\n",
                 provenance_json.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": %s, \"cat\": \"perfbench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}\n",
                     i == 0 ? "" : ",", jsonString(s.name).c_str(),
                     1e-3 * static_cast<double>(s.startNs),
                     1e-3 * static_cast<double>(s.endNs - s.startNs), i,
                     s.parent);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
KindTimes::add(const std::string &kind, double seconds, double work)
{
    Entry &e = kinds_[kind];
    e.work = work;
    e.seconds.push_back(seconds);
}

double
KindTimes::rate() const
{
    double work = 0.0, secs = 0.0;
    for (const auto &[kind, e] : kinds_) {
        work += e.work;
        secs += medianOf(e.seconds);
    }
    return secs > 0.0 ? work / secs : 0.0;
}

size_t
KindTimes::minSamplesPerKind() const
{
    size_t n = kinds_.empty() ? 0 : SIZE_MAX;
    for (const auto &[kind, e] : kinds_)
        n = std::min(n, e.seconds.size());
    return n;
}

void
Tally::record(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (logFailures && failed <= 5)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Metric &m : list_)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    list_.push_back({name, value, unit});
}

void
Metrics::append(const Metrics &other)
{
    for (const Metric &m : other.all())
        set(m.name, m.value, m.unit);
}

void
Digest::put(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    entries_[key] = buf;
}

void
Digest::putHex(const std::string &key, uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    entries_[key] = buf;
}

uint64_t
Digest::hash() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &[k, v] : entries_) {
        const std::string line = k + "=" + v + "\n";
        h = fnv1a(line.data(), line.size(), h);
    }
    return h;
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
tracingOverheadPct(const std::function<void()> &op, int reps)
{
    const bool was = tracer().enabled();
    std::vector<double> off, on;
    for (int r = 0; r < reps; ++r)
        for (const bool traced : {false, true}) {
            tracer().setEnabled(traced);
            const auto t0 = Clock::now();
            op();
            (traced ? on : off).push_back(secondsSince(t0));
        }
    tracer().setEnabled(was);
    const double base = medianOf(off);
    return base > 0.0 ? 100.0 * (medianOf(on) - base) / base : 0.0;
}

uint64_t
deriveSeed(uint64_t seed, const char *purpose)
{
    // splitmix64 finalizer over (seed, purpose): independent streams
    // per purpose, identical for identical seeds.
    uint64_t z = fnv1a(purpose, std::char_traits<char>::length(purpose),
                       seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
