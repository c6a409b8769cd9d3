/**
 * @file
 * The benchmark's metrics: the workload-level (end-to-end) figures
 * and the per-layer split of the traced run, each with its unit, its
 * better direction and whether it is host time (noisy) or a property
 * of the modelled machine (exact: repeats bit for bit).
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench.hh"
#include "spans.hh"

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string better; ///< "lower" or "higher"
    bool exact = false; ///< modelled machine (repeats exactly)
    bool applies = true; ///< false: the workload bypasses it (value 0)
    std::string note;
};

/** Everything one invocation measured. */
struct RunData
{
    const WorkloadDef *def = nullptr;
    std::vector<double> setupWalls;
    std::vector<PassRecord> passes; ///< untraced passes
    const PassRecord *traced = nullptr;
    const ProbeRecord *probes = nullptr;
    std::vector<Span> spans;
    double peakRssMb = 0.0;
    std::uint64_t traceEvents = 0; ///< events of the traces simulated
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Samples strictly beyond the nearest-rank p95 of @p n samples. */
std::uint64_t samplesBeyondP95(std::uint64_t n);

double median(std::vector<double> values);

/** The workload-level metrics (all eleven, n/a where bypassed). */
std::vector<Metric> workloadMetrics(const RunData &run);

/** The per-layer metrics of the traced run. */
std::vector<Metric> layerMetrics(const RunData &run);

/**
 * FNV-1a over the SimResult JSON of every job of @p passes, in run
 * order: equal digests mean every simulated statistic is equal.
 */
std::uint64_t simDigest(std::initializer_list<const PassRecord *> passes);

/** Mark each job of @p pass whose result differs from @p first. */
void checkRepeat(const PassRecord &first, PassRecord &pass);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
