#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench
{

namespace
{

/** Spans open on this thread, innermost last. */
thread_local std::vector<std::int64_t> openStack;

/** Minimal JSON string escaping for span names and job ids. */
std::string
quoted(const std::string &s)
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

} // anonymous namespace

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::int64_t
Tracer::open(std::string name, std::string job, std::int64_t parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.job = std::move(job);
    s.parent = parent;
    s.end = -1.0; // open
    std::lock_guard<std::mutex> lock(mu_);
    s.start = now();
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::close(std::int64_t id)
{
    if (id < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

ScopedSpan::ScopedSpan(Tracer &tracer, std::string name, std::string job,
                       std::int64_t parent)
    : tracer_(tracer),
      id_(tracer.open(std::move(name), std::move(job),
                      parent == inherit ? currentSpan() : parent))
{
    if (id_ >= 0)
        openStack.push_back(id_);
}

ScopedSpan::~ScopedSpan()
{
    if (id_ < 0)
        return;
    tracer_.close(id_);
    if (!openStack.empty() && openStack.back() == id_)
        openStack.pop_back();
}

std::int64_t
currentSpan()
{
    return openStack.empty() ? -1 : openStack.back();
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent
        // (parallel children overlap).
        double covered = 0.0;
        double reach = p.start;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            b = std::min(b, p.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = out[spans[i].name];
        ++t.calls;
        t.total += spans[i].end - spans[i].start;
        t.self += self[i];
    }
    return out;
}

bool
spansNest(const std::vector<Span> &spans, std::string &why)
{
    const std::vector<double> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string id =
            "span " + std::to_string(i) + " (" + s.name + ")";
        if (s.end < s.start) {
            why = id + " is not closed";
            return false;
        }
        if (s.parent >= 0) {
            if (static_cast<std::size_t>(s.parent) >= i) {
                why = id + " has a parent opened after it";
                return false;
            }
            const Span &p = spans[static_cast<std::size_t>(s.parent)];
            if (s.start < p.start || s.end > p.end) {
                why = id + " lies outside its parent " + p.name;
                return false;
            }
        }
        if (self[i] < 0.0) {
            why = id + " has negative self time";
            return false;
        }
    }
    return true;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    const std::vector<double> self = selfTimes(spans);
    os << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char times[128];
        std::snprintf(times, sizeof times,
                      "\"start\": %.9f, \"end\": %.9f, \"self\": %.9f",
                      s.start, s.end, self[i]);
        os << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
           << ", \"job\": " << quoted(s.job) << ", \"parent\": "
           << s.parent << ", " << times << "}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]\n";
    if (!os)
        throw std::runtime_error("short write of spans to " + path);
}

} // namespace perfbench
