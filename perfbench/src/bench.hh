/**
 * @file
 * Shared state of one benchmark invocation: options, the DB workload
 * set, the per-pass job records and the traced run's probe results.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "harness/simconfig.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"
#include "spans.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    double scale = 0.0;       ///< buildDbSet scale; 0: the workload's
    std::string outDir = "."; ///< spans and campaign run dirs
};

/** One simulation the benchmark ran, with its output-check verdict. */
struct JobRecord
{
    std::string stage; ///< detail, server, ref, cold, warm, direct
    std::string workload;
    std::string label;
    cgp::SimConfig config;
    cgp::SimResult result;
    double wall = 0.0; ///< host seconds of the call (0 inside campaigns)
    double truthCpi = 0.0; ///< sampled jobs: full-detail reference CPI
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
    std::string key() const { return stage + ":" + workload + "|" + label; }
};

/** One pass over a workload's job set. */
struct PassRecord
{
    double wall = 0.0;    ///< host seconds of the whole pass
    double jobWall = 0.0; ///< summed job host seconds (campaign:
                          ///< campaign wall x threads used)
    std::vector<JobRecord> jobs;

    /// @{ sampled-ckpt only.
    double coldWall = 0.0;
    double warmWall = 0.0;
    double smpFullWall = 0.0;    ///< full-detail CGP_4 references
    double smpSampledWall = 0.0; ///< the same points, sampled
    std::uint64_t artifactBytes = 0;
    std::uint64_t checkpointBytes = 0;
    /// @}
};

/** The traced run's probes over single-core machines. */
struct ProbeRecord
{
    std::uint64_t drainInstrs = 0;
    std::uint64_t drainCalls = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t icacheStallCycles = 0;
    std::uint64_t branchStallCycles = 0;
    std::uint64_t queueFullCycles = 0;
    unsigned machines = 0;
    unsigned matched = 0;   ///< machines equal to runSimulation
    unsigned attempted = 0; ///< probe points and probe jobs
    std::vector<std::string> failures; ///< one per failed attempt
};

/** A workload: its name, its DB trace scale and its single-core points. */
struct WorkloadDef
{
    std::string name;
    std::string why;
    double scale = 0.0; ///< buildDbSet scale (--scale overrides it)
    /**
     * (trace, config) points: detail-paper's jobs, server-mix's two
     * configurations before they are lifted onto the server, and
     * sampled-ckpt's full-detail references.  The traced run
     * assembles one single-core machine per point, and their expander
     * drains check committed instructions.
     */
    std::vector<std::pair<std::string, cgp::SimConfig>> points;
    /**
     * sampled-ckpt: the sampled configurations of the fig_sampled
     * campaign.  The first CGP one is also run directly against the
     * warm checkpoint store (the sampled side of smp_speedup).
     */
    std::vector<cgp::SimConfig> sampled;

    double effectiveScale(const Options &opt) const
    {
        return opt.scale > 0.0 ? opt.scale : scale;
    }
};

/** sampled-ckpt's direct point: the first sampled CGP configuration. */
const cgp::SimConfig &directSampled(const WorkloadDef &def);

const std::vector<WorkloadDef> &workloadDefs();
const WorkloadDef &workloadDef(const std::string &name);

class Bench
{
  public:
    Bench(const Options &options, Tracer &tracer)
        : opt(options), tracer(tracer)
    {
    }

    const Options &opt;
    Tracer &tracer;
    cgp::DbWorkloadSet set;

    /** @throws std::invalid_argument for an unknown trace. */
    const cgp::Workload &trace(const std::string &name) const;

    /**
     * Instructions an expander drain of @p workload under @p config's
     * layout emits: what a full run must commit.  Computed once per
     * (trace, layout) and cached; thread-safe.
     */
    std::uint64_t drained(const cgp::Workload &workload,
                          const cgp::SimConfig &config);

    /**
     * Full-detail references that no host metric needs (sampled-ckpt's
     * O5+OM ones): deterministic, so run once by prepare() before the
     * timed passes and only compared against.
     */
    std::vector<JobRecord> onceRefs;

  private:
    std::mutex mu_;
    std::map<std::string, std::uint64_t> drained_; ///< guarded by mu_
};

/**
 * Run and check the workload's references that stay out of the timed
 * passes, into Bench::onceRefs.
 */
void prepare(Bench &bench, const WorkloadDef &def);

/** Run one pass of @p def, checking every job's outputs. */
PassRecord runPass(Bench &bench, const WorkloadDef &def);

/**
 * Traced-run probes: bind, expander drain, fastForward and a
 * self-assembled machine per probe point, checked against the
 * matching runSimulation result of @p traced (or a fresh one).
 */
ProbeRecord runProbes(Bench &bench, const WorkloadDef &def,
                      const PassRecord &traced);

/** Host seconds since an arbitrary origin. */
double hostNow();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
