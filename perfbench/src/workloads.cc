/**
 * @file
 * The three workloads (detail-paper, server-mix, sampled-ckpt): one
 * pass over each job set, the output checks on every job, and the
 * traced run's probes.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "exp/campaigns.hh"
#include "exp/checkpoint.hh"
#include "exp/engine.hh"
#include "machine.hh"
#include "metrics.hh"

namespace perfbench
{

using namespace cgp;
namespace fs = std::filesystem;

namespace
{

constexpr unsigned serverCores = 4;
constexpr unsigned serverSessions = 32;
/** Queries per server point: enough for >= 10 beyond p95 on every seed. */
constexpr std::uint64_t serverQueries = 480;
/**
 * Query streams per server configuration and pass.  Stream k runs with
 * ServerConfig::seed = seed + k * 2^32, so stream 0 is the seed itself.
 * The seed changes the query mix and so the work of a pass; three
 * streams average that out.
 */
constexpr unsigned serverStreams = 3;
constexpr unsigned poolThreads = 2;
/** server-mix's six jobs run in two rounds, so a traced run (two
 *  passes) stays well inside the time limit on a slowed host. */
constexpr unsigned serverThreads = 3;
/** Watchdog: wall-clock budget of one job, in seconds. */
constexpr double jobWallBudget = 150.0;
/**
 * Fewest detailed windows a sampled job may see, and the widest 95%
 * band it may report (half-width over the CPI estimate, in %): beyond
 * either, "full-detail CPI inside the band" is hardly a check.
 */
constexpr std::uint64_t minSampledWindows = 10;
constexpr double maxBandHalfWidthPct = 100.0;

const char *const serverTrace = "wisc-prof";

SimConfig
cgp4om()
{
    return SimConfig::withCgp(LayoutKind::PettisHansen, 4);
}

/** The server's prefetching configuration: CGP_4 + D-combined + arb. */
SimConfig
serverPrefetch()
{
    return SimConfig::withIPlusD(DataPrefetchKind::Combined, true);
}

/** Run fn(0..n-1) on up to @p threads threads (the caller's included). */
template <class Fn>
void
parallelFor(std::size_t n, unsigned threads, Fn fn)
{
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::thread> pool;
    struct Joiner
    {
        std::vector<std::thread> &threads;
        ~Joiner()
        {
            for (std::thread &t : threads)
                t.join();
        }
    } joiner{pool};
    for (unsigned t = 1; t < threads && t < n; ++t)
        pool.emplace_back(worker);
    worker();
}

JobRecord
runJob(Bench &bench, const std::string &stage, const std::string &trace,
       SimConfig config, const char *span,
       std::int64_t parent = ScopedSpan::inherit)
{
    JobRecord j;
    j.stage = stage;
    j.workload = trace;
    j.label = config.describe();
    if (config.server.enabled)
        j.label += " seed=" + std::to_string(config.server.seed);
    config.core.maxWallSeconds = jobWallBudget;
    j.config = config;
    ScopedSpan s(bench.tracer, span, trace + "|" + j.label, parent);
    const double t0 = hostNow();
    try {
        j.result = runSimulation(bench.trace(trace), config);
    } catch (const std::exception &e) {
        j.failures.push_back(std::string("exception: ") + e.what());
    }
    j.wall = hostNow() - t0;
    return j;
}

void
checkSingleCore(Bench &bench, JobRecord &j)
{
    if (!j.ok())
        return;
    if (j.result.prefetchDegraded)
        j.failures.push_back("prefetch degraded: " +
                             j.result.degradedReason);
    const std::uint64_t want =
        bench.drained(bench.trace(j.workload), j.config);
    if (j.result.instrs != want) {
        j.failures.push_back(
            "committed " + std::to_string(j.result.instrs) +
            " instrs, expander drain emits " + std::to_string(want));
    }
}

void
checkServer(JobRecord &j, std::uint64_t totalQueries)
{
    if (!j.ok())
        return;
    if (j.result.prefetchDegraded)
        j.failures.push_back("prefetch degraded: " +
                             j.result.degradedReason);
    const std::uint64_t served = j.result.server.queriesServed;
    if (served < totalQueries) {
        j.failures.push_back("served " + std::to_string(served) +
                             " of " + std::to_string(totalQueries) +
                             " queries");
    }
    if (samplesBeyondP95(served) < 10) {
        j.failures.push_back(
            "p95 has only " + std::to_string(samplesBeyondP95(served)) +
            " samples beyond it");
    }
}

/** The full-detail twin of a sampled configuration. */
std::string
fullDetailLabel(SimConfig config)
{
    config.sample = {};
    return config.describe();
}

/** The full-detail twin of sampled job @p j in @p refs or onceRefs. */
const JobRecord *
findReference(const Bench &bench, const JobRecord &j,
              const std::vector<JobRecord> &refs)
{
    const std::string want = fullDetailLabel(j.config);
    for (const std::vector<JobRecord> *list : {&refs, &bench.onceRefs}) {
        for (const JobRecord &r : *list) {
            if (r.workload == j.workload && r.label == want)
                return &r;
        }
    }
    return nullptr;
}

/**
 * A sampled job must see at least minSampledWindows windows, its band
 * must be no wider than maxBandHalfWidthPct, and the CPI of its
 * full-detail reference must lie inside the band.
 */
void
checkBand(const Bench &bench, JobRecord &j,
          const std::vector<JobRecord> &refs)
{
    if (!j.ok())
        return;
    if (!j.result.sampledEnabled) {
        j.failures.push_back("sampled result block missing");
        return;
    }
    if (j.result.sampled.windows < minSampledWindows) {
        j.failures.push_back(
            "only " + std::to_string(j.result.sampled.windows) +
            " detailed windows, fewer than " +
            std::to_string(minSampledWindows));
        return;
    }
    const sample::SampledEstimate &cpi = j.result.sampled.cpi;
    const double halfWidthPct = 50.0 * (cpi.ciHigh - cpi.ciLow) / cpi.mean;
    if (!(halfWidthPct <= maxBandHalfWidthPct)) {
        j.failures.push_back("95% band half-width " +
                             std::to_string(halfWidthPct) +
                             "% of the CPI estimate, over " +
                             std::to_string(maxBandHalfWidthPct) + "%");
        return;
    }
    const JobRecord *r = findReference(bench, j, refs);
    if (r == nullptr) {
        j.failures.push_back("no full-detail reference " +
                             fullDetailLabel(j.config));
        return;
    }
    if (!r->ok() || r->result.instrs == 0) {
        j.failures.push_back("full-detail reference failed");
        return;
    }
    j.truthCpi = static_cast<double>(r->result.cycles) /
        static_cast<double>(r->result.instrs);
    if (!cpi.contains(j.truthCpi)) {
        j.failures.push_back("full-detail CPI " +
                             std::to_string(j.truthCpi) +
                             " outside the sampled 95% band [" +
                             std::to_string(cpi.ciLow) + ", " +
                             std::to_string(cpi.ciHigh) + "]");
    }
}

std::uint64_t
bytesUnder(const fs::path &dir, const fs::path &skip = {})
{
    std::uint64_t total = 0;
    if (!fs::exists(dir))
        return 0;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
        if (!skip.empty() && it->path() == skip) {
            it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file())
            total += it->file_size();
    }
    return total;
}

/** The sealed checkpoint store, with each hook call in a span. */
sample::CheckpointHooks
timedStore(Tracer &tracer, const std::string &runDir)
{
    const sample::CheckpointHooks inner =
        exp::makeSealedCheckpointStore(runDir);
    sample::CheckpointHooks hooks;
    hooks.load = [&tracer, inner](const std::string &key) {
        ScopedSpan s(tracer, "sample.ckpt_load", key);
        return inner.load(key);
    };
    hooks.save = [&tracer, inner](const std::string &key,
                                  Json &&checkpoint) {
        ScopedSpan s(tracer, "sample.ckpt_save", key);
        inner.save(key, std::move(checkpoint));
    };
    return hooks;
}

using Points = std::vector<std::pair<std::string, SimConfig>>;

/** Run the ordered points on the pool; keep results in order. */
std::vector<JobRecord>
runPoints(Bench &bench, const std::string &stage, const Points &points,
          const char *span, unsigned threads = poolThreads)
{
    std::vector<JobRecord> jobs(points.size());
    const std::int64_t parent = currentSpan();
    parallelFor(points.size(), threads, [&](std::size_t i) {
        jobs[i] = runJob(bench, stage, points[i].first,
                         points[i].second, span, parent);
    });
    return jobs;
}

/** The paper configurations, serial on one thread. */
void
detailPass(Bench &bench, const WorkloadDef &def, PassRecord &pass)
{
    for (const auto &[trace, config] : def.points) {
        JobRecord j = runJob(bench, "detail", trace, config, "harness.job");
        checkSingleCore(bench, j);
        pass.jobWall += j.wall;
        pass.jobs.push_back(std::move(j));
    }
}

/** Each probe configuration lifted onto the server per query stream. */
void
serverPass(Bench &bench, const WorkloadDef &def, PassRecord &pass)
{
    Points points;
    for (unsigned k = 0; k < serverStreams; ++k) {
        for (const auto &[trace, base] : def.points) {
            SimConfig c = SimConfig::withServer(base, serverCores,
                                                serverSessions,
                                                serverQueries);
            c.server.seed = bench.opt.seed + (std::uint64_t{k} << 32);
            points.emplace_back(trace, std::move(c));
        }
    }
    for (JobRecord &j :
         runPoints(bench, "server", points, "server.run", serverThreads)) {
        checkServer(j, serverQueries);
        pass.jobWall += j.wall;
        pass.jobs.push_back(std::move(j));
    }
}

/** Whether @p config is the full-detail twin of the direct point. */
bool
timedReference(const WorkloadDef &def, const SimConfig &config)
{
    return config.describe() == fullDetailLabel(directSampled(def));
}

void
sampledPass(Bench &bench, const WorkloadDef &def, PassRecord &pass)
{
    // The full-detail references of the direct point (the other side
    // of smp_speedup), run directly so each one's wall time is known.
    // The other references ran once, in prepare().
    Points refPoints;
    for (const auto &point : def.points) {
        if (timedReference(def, point.second))
            refPoints.push_back(point);
    }
    std::vector<JobRecord> refs =
        runPoints(bench, "ref", refPoints, "harness.job");
    for (JobRecord &j : refs) {
        checkSingleCore(bench, j);
        pass.jobWall += j.wall;
        pass.smpFullWall += j.wall;
    }

    // Cold then warm campaign pass over one run dir: the cold pass
    // writes job files and sealed warm-state checkpoints, the warm
    // pass (resume=false) restores the checkpoints and rewrites the
    // artifacts.
    const std::string runDir = bench.opt.outDir + "/runs/sampled-ckpt";
    fs::remove_all(runDir);
    exp::CampaignSpec spec = exp::paperCampaign("fig_sampled");
    spec.explicitConfigs = def.sampled;
    std::vector<Workload> traces;
    for (const std::string &t : spec.workloads)
        traces.push_back(bench.trace(t));
    exp::InMemoryProvider provider(traces);

    for (const bool cold : {true, false}) {
        exp::EngineOptions eo;
        eo.threads = poolThreads;
        eo.runDir = runDir;
        eo.resume = false;
        eo.verbose = false;
        eo.onFail = exp::FailurePolicy::Degrade;
        eo.watchdogWallSeconds = jobWallBudget;
        const std::string stage = cold ? "cold" : "warm";
        exp::CampaignRun run;
        std::string campaignError;
        const double t0 = hostNow();
        {
            ScopedSpan s(bench.tracer,
                         cold ? "exp.pass_cold" : "exp.pass_warm");
            try {
                run = exp::runCampaign(spec, provider, eo);
            } catch (const std::exception &e) {
                campaignError = e.what();
            }
        }
        const double wall = hostNow() - t0;
        (cold ? pass.coldWall : pass.warmWall) = wall;
        pass.jobWall += wall * std::max(1u, run.threadsUsed);
        if (!campaignError.empty()) {
            JobRecord j;
            j.stage = stage;
            j.workload = "campaign";
            j.label = spec.name;
            j.failures.push_back("campaign failed: " + campaignError);
            pass.jobs.push_back(std::move(j));
            continue;
        }
        for (std::size_t i = 0; i < run.jobs.size(); ++i) {
            JobRecord j;
            j.stage = stage;
            j.workload = run.jobs[i].workload;
            j.label = run.jobs[i].label;
            j.config = run.jobs[i].config;
            j.result = run.results[i];
            for (const exp::JobFailure &f : run.failures) {
                if (f.index == run.jobs[i].index)
                    j.failures.push_back(f.kind + ": " + f.message);
            }
            checkSingleCore(bench, j);
            checkBand(bench, j, refs);
            pass.jobs.push_back(std::move(j));
        }
    }

    // The direct point again, against the warm store: the sampled
    // side of smp_speedup.
    Points direct;
    for (const auto &point : refPoints) {
        SimConfig c = directSampled(def);
        c.sample.checkpoints = timedStore(bench.tracer, runDir);
        direct.emplace_back(point.first, std::move(c));
    }
    for (JobRecord &j : runPoints(bench, "direct", direct, "sample.run")) {
        checkSingleCore(bench, j);
        checkBand(bench, j, refs);
        pass.jobWall += j.wall;
        pass.smpSampledWall += j.wall;
        pass.jobs.push_back(std::move(j));
    }
    for (JobRecord &j : refs)
        pass.jobs.push_back(std::move(j));

    const fs::path store = exp::checkpointStoreDir(runDir);
    pass.checkpointBytes = bytesUnder(store);
    pass.artifactBytes = bytesUnder(runDir, store);
}

} // anonymous namespace

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = [] {
        std::vector<WorkloadDef> d(3);
        d[0].name = "detail-paper";
        d[0].why = "single-core full detail, paper configs: host time "
                   "in the cycle loop; bypasses server, sample, exp";
        d[0].scale = 0.1;
        for (const char *t : {"wisc-large-2", "wisc+tpch"}) {
            for (const SimConfig &c :
                 {SimConfig::o5(), SimConfig::o5Om(),
                  SimConfig::withNL(LayoutKind::PettisHansen, 4),
                  cgp4om()})
                d[0].points.emplace_back(t, c);
        }
        d[1].name = "server-mix";
        d[1].why = "4-core DbServer, 32 sessions: lockstep loop, "
                   "admission, shared L2 port, D-side engines, arbiter";
        d[1].scale = 0.1;
        for (const SimConfig &c : {SimConfig::o5(), serverPrefetch()})
            d[1].points.emplace_back(serverTrace, c);
        // The fig_sampled campaign: its sampled configurations run
        // through exp::runCampaign, its full-detail ones are the
        // references.
        d[2].name = "sampled-ckpt";
        d[2].why = "fig_sampled campaign via exp::runCampaign, cold then "
                   "warm pass: fast-forward, checkpoints, artifact I/O";
        // Every sampled job sees >= 11 windows at 0.3 (at 0.25 the
        // 50K/500K point on wisc-large-2 sees 9).
        d[2].scale = 0.3;
        const exp::CampaignSpec fig = exp::paperCampaign("fig_sampled");
        for (const SimConfig &c : fig.explicitConfigs) {
            if (c.sample.enabled) {
                d[2].sampled.push_back(c);
                continue;
            }
            for (const std::string &t : fig.workloads)
                d[2].points.emplace_back(t, c);
        }
        return d;
    }();
    return defs;
}

const SimConfig &
directSampled(const WorkloadDef &def)
{
    for (const SimConfig &c : def.sampled) {
        if (c.prefetch == PrefetchKind::Cgp)
            return c;
    }
    throw std::invalid_argument(def.name + " has no sampled CGP point");
}

const WorkloadDef &
workloadDef(const std::string &name)
{
    for (const WorkloadDef &d : workloadDefs()) {
        if (d.name == name)
            return d;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

const Workload &
Bench::trace(const std::string &name) const
{
    for (const Workload &w : set.workloads) {
        if (w.name == name)
            return w;
    }
    throw std::invalid_argument("unknown trace '" + name + "'");
}

std::uint64_t
Bench::drained(const Workload &workload, const SimConfig &config)
{
    const std::string key = workload.name + "|" +
        std::to_string(static_cast<int>(config.layout)) + "|" +
        std::to_string(expanderConfig(config).instrScale);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = drained_.find(key);
    if (it == drained_.end()) {
        const CodeImage image = bindLayout(workload, config);
        it = drained_
                 .emplace(key,
                          drainExpander(workload, image, config).instrs)
                 .first;
    }
    return it->second;
}

void
prepare(Bench &bench, const WorkloadDef &def)
{
    if (def.name != "sampled-ckpt")
        return;
    Points once;
    for (const auto &point : def.points) {
        if (!timedReference(def, point.second))
            once.push_back(point);
    }
    bench.onceRefs = runPoints(bench, "ref-once", once, "harness.job");
    for (JobRecord &j : bench.onceRefs)
        checkSingleCore(bench, j);
}

PassRecord
runPass(Bench &bench, const WorkloadDef &def)
{
    PassRecord pass;
    ScopedSpan s(bench.tracer, "bench.pass", def.name);
    const double t0 = hostNow();
    if (def.name == "detail-paper")
        detailPass(bench, def, pass);
    else if (def.name == "server-mix")
        serverPass(bench, def, pass);
    else
        sampledPass(bench, def, pass);
    pass.wall = hostNow() - t0;
    return pass;
}

ProbeRecord
runProbes(Bench &bench, const WorkloadDef &def, const PassRecord &traced)
{
    ProbeRecord p;
    ScopedSpan probeSpan(bench.tracer, "bench.probe", def.name);
    for (const auto &[traceName, config] : def.points) {
        const std::string id = traceName + "|" + config.describe();
        ++p.attempted;
        try {
            const Workload &w = bench.trace(traceName);
            const JobRecord *ref = nullptr;
            const std::vector<JobRecord> *lists[] = {&traced.jobs,
                                                     &bench.onceRefs};
            for (const std::vector<JobRecord> *list : lists) {
                for (const JobRecord &j : *list) {
                    if (j.workload == traceName &&
                        j.label == config.describe() &&
                        !j.result.serverEnabled && !j.result.sampledEnabled)
                        ref = &j;
                }
            }
            JobRecord own;
            if (ref == nullptr) {
                own = runJob(bench, "probe-ref", traceName, config,
                             "harness.job");
                checkSingleCore(bench, own);
                ref = &own;
            }

            const CodeImage image = [&] {
                ScopedSpan s(bench.tracer, "codegen.bind", id);
                return bindLayout(w, config);
            }();
            DrainCount drain;
            {
                ScopedSpan s(bench.tracer, "trace.expand", id);
                drain = drainExpander(w, image, config);
            }
            p.drainInstrs += drain.instrs;
            p.drainCalls += drain.calls;
            {
                Machine m(w, image, config);
                ScopedSpan s(bench.tracer, "cpu.ffwd", id);
                m.core().fastForward(
                    std::numeric_limits<std::uint64_t>::max(), true);
            }
            Machine m(w, image, config);
            {
                ScopedSpan s(bench.tracer, "cpu.run", id);
                m.core().run();
            }
            const Core &core = m.core();
            const StatGroup &st = core.stats();
            p.cycles += core.cycles();
            p.instrs += core.committedInstrs();
            p.idleCycles += core.idleCycles();
            p.icacheStallCycles +=
                st.counterValue("fetch_icache_stall_cycles");
            p.branchStallCycles +=
                st.counterValue("fetch_branch_stall_cycles");
            p.queueFullCycles += st.counterValue("fetch_queue_full_cycles");
            ++p.machines;
            if (ref->ok() && core.cycles() == ref->result.cycles &&
                core.committedInstrs() == ref->result.instrs) {
                ++p.matched;
            } else {
                p.failures.push_back(
                    id + ": machine " + std::to_string(core.cycles()) +
                    " cycles / " + std::to_string(core.committedInstrs()) +
                    " instrs, runSimulation " +
                    std::to_string(ref->result.cycles) + " / " +
                    std::to_string(ref->result.instrs) +
                    (ref->ok() ? "" : " (" + ref->failures[0] + ")"));
            }
        } catch (const std::exception &e) {
            p.failures.push_back(id + ": exception: " + e.what());
        }
    }

    if (def.name == "sampled-ckpt") {
        // Checkpoint save timing: the sampled point against an empty
        // store, so the warmup prefix is cut and saved.
        const std::string runDir = bench.opt.outDir + "/runs/probe-save";
        fs::remove_all(runDir);
        for (const auto &[trace, config] : def.points) {
            if (!timedReference(def, config))
                continue;
            SimConfig c = directSampled(def);
            c.sample.checkpoints = timedStore(bench.tracer, runDir);
            ++p.attempted;
            JobRecord j =
                runJob(bench, "probe-save", trace, c, "sample.run");
            checkSingleCore(bench, j);
            if (j.ok() && !j.result.sampled.checkpointSaved)
                j.failures.push_back("no checkpoint saved");
            if (!j.ok())
                p.failures.push_back(j.key() + ": " + j.failures[0]);
        }
    }
    return p;
}

} // namespace perfbench
