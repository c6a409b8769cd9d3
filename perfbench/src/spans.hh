/**
 * @file
 * In-memory span recorder for the traced benchmark run.  Spans are
 * recorded by the benchmark around its own calls into the simulator's
 * public functions (the simulator itself is not instrumented); they
 * are kept in memory and written out when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    std::string job;        ///< job identity ("" outside jobs)
    double start = 0.0;     ///< seconds since the tracer's origin
    double end = 0.0;
    std::int64_t parent = -1; ///< index of the enclosing span, or -1
};

/** Thread-safe span store.  Disabled tracers record nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Seconds since construction. */
    double now() const;

    /** Open a span; returns its id (-1 when disabled). */
    std::int64_t open(std::string name, std::string job,
                      std::int64_t parent);
    void close(std::int64_t id);

    std::vector<Span> spans() const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/**
 * RAII span.  The parent defaults to the innermost span open on the
 * calling thread; work handed to another thread passes it explicitly.
 */
class ScopedSpan
{
  public:
    static constexpr std::int64_t inherit = -2;

    ScopedSpan(Tracer &tracer, std::string name, std::string job = {},
               std::int64_t parent = inherit);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

/** The innermost span open on the calling thread (-1 if none). */
std::int64_t currentSpan();

struct SpanTotals
{
    std::uint64_t calls = 0;
    double total = 0.0; ///< summed durations
    double self = 0.0;  ///< summed self times
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Per-name call count, total and self time. */
std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans);

/**
 * Every span is closed, lies inside its parent, and has a
 * non-negative self time.  On failure @p why names the first
 * offending span.
 */
bool spansNest(const std::vector<Span> &spans, std::string &why);

/** Write the spans as a JSON array of objects. */
void writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
