/**
 * @file
 * perfbench: the simulator's benchmark.  Runs one named workload for
 * a time budget, checks every job's outputs, and prints every metric
 * by name with its unit, its better direction and whether it is host
 * time or an exact property of the modelled machine.  The last line
 * of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Usage:
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--scale <f>] [--out <dir>]
 *
 * --scale overrides the workload's buildDbSet scale (smoke runs).
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * the run does one untraced and one traced pass plus the per-layer
 * probes, and the metrics are the per-layer set.
 */

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "bench.hh"
#include "metrics.hh"
#include "spans.hh"
#include "util/logging.hh"

namespace
{

using namespace perfbench;

/** Metrics the end-to-end (untraced) JSON line carries. */
const std::set<std::string> endToEnd = {
    "setup_s", "wall_s", "sim_mips", "peak_rss_mb", "cgp_speedup"};

/** Paper Fig. 4: O5+OM+CGP_4 over O5+OM on the simulated Alpha. */
constexpr double paperCgpSpeedup = 1.30;

/** buildDbSet calls per run; setup_s is their median. */
constexpr unsigned setupReps = 3;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale <f>] "
                 "[--out <dir>]\n",
                 why.c_str());
    std::exit(2);
}

double
number(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0)
        usage("bad value '" + std::string(text) + "' for " + flag);
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = static_cast<std::uint64_t>(number(flag, v));
        } else if (flag == "--seconds") {
            o.seconds = number(flag, v);
        } else if (flag == "--trace") {
            o.trace = number(flag, v) != 0.0;
        } else if (flag == "--scale") {
            o.scale = number(flag, v);
        } else if (flag == "--out") {
            o.outDir = v;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printMetric(const char *kind, const Metric &m,
            const std::string &workload)
{
    if (!m.applies) {
        std::printf("%s %s = n/a %s (%s; %s does not exercise it)\n",
                    kind, m.name.c_str(), m.unit.c_str(),
                    m.exact ? "exact" : "host", workload.c_str());
        return;
    }
    std::printf("%s %s = %.6g %s (%s is better, %s)%s%s\n", kind,
                m.name.c_str(), m.value, m.unit.c_str(), m.better.c_str(),
                m.exact ? "exact" : "host",
                m.note.empty() ? "" : "; ", m.note.c_str());
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    return out + "}";
}

/** Window count, CPI band and reference error of a sampled job. */
void
printSampled(const JobRecord &j)
{
    const cgp::sample::SampledEstimate &cpi = j.result.sampled.cpi;
    std::printf("  sampled: %" PRIu64 " windows, CPI %.4f, 95%% band "
                "[%.4f, %.4f] (half-width %.1f%%)",
                j.result.sampled.windows, cpi.mean, cpi.ciLow, cpi.ciHigh,
                cpi.mean > 0.0
                    ? 50.0 * (cpi.ciHigh - cpi.ciLow) / cpi.mean
                    : 0.0);
    if (j.truthCpi > 0.0) {
        std::printf(", full-detail CPI %.4f (error %.1f%%)", j.truthCpi,
                    100.0 * std::fabs(cpi.mean - j.truthCpi) / j.truthCpi);
    }
    std::printf("\n");
}

int
runBenchmark(const Options &opt)
{
    const WorkloadDef &def = workloadDef(opt.workload);
    const double scale = def.effectiveScale(opt);
    cgp::setLogLevel(cgp::LogLevel::Warn);
    std::filesystem::create_directories(opt.outDir);

    Tracer tracer(opt.trace);
    Bench bench(opt, tracer);
    RunData run;
    run.def = &def;

    std::printf("perfbench workload=%s seed=%" PRIu64
                " seconds=%g trace=%d scale=%g\n",
                def.name.c_str(), opt.seed, opt.seconds,
                opt.trace ? 1 : 0, scale);
    std::printf("workload: %s\n", def.why.c_str());
    std::printf("note: every simulation starts with empty caches, "
                "predictors and CGHC (whole-trace cold start, as in the "
                "golden suite)\n");

    for (unsigned r = 0; r < setupReps; ++r) {
        bench.set = cgp::DbWorkloadSet{};
        ScopedSpan s(tracer, "harness.build");
        const double t0 = hostNow();
        bench.set = cgp::WorkloadFactory::buildDbSet(scale);
        run.setupWalls.push_back(hostNow() - t0);
    }

    // Committed-instruction references (expander drains), computed
    // before any timed pass.
    std::set<std::string> traces;
    for (const auto &[trace, config] : def.points) {
        bench.drained(bench.trace(trace), config);
        if (traces.insert(trace).second)
            run.traceEvents += bench.trace(trace).trace->size();
    }
    {
        const bool enabled = tracer.enabled();
        tracer.setEnabled(false);
        prepare(bench, def);
        tracer.setEnabled(enabled);
    }

    PassRecord traced;
    ProbeRecord probes;
    if (!opt.trace) {
        const double start = hostNow();
        do {
            run.passes.push_back(runPass(bench, def));
        } while (hostNow() - start < opt.seconds);
    } else {
        tracer.setEnabled(false);
        run.passes.push_back(runPass(bench, def));
        tracer.setEnabled(true);
        traced = runPass(bench, def);
        probes = runProbes(bench, def, traced);
        run.traced = &traced;
        run.probes = &probes;
    }
    for (std::size_t i = 1; i < run.passes.size(); ++i)
        checkRepeat(run.passes.front(), run.passes[i]);
    if (opt.trace)
        checkRepeat(run.passes.front(), traced);

    // Pass 0 holds the references run once before the timed passes.
    PassRecord once;
    once.jobs = bench.onceRefs;
    std::vector<const PassRecord *> all = {&once};
    for (const PassRecord &p : run.passes)
        all.push_back(&p);
    if (opt.trace)
        all.push_back(&traced);
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i == 0 && once.jobs.empty())
            continue;
        std::size_t failed = 0;
        for (const JobRecord &j : all[i]->jobs) {
            ++run.attempted;
            if (j.wall > 0.0) {
                std::printf("job %zu %s: %.3f s, %.3f Minstr/s\n", i,
                            j.key().c_str(), j.wall,
                            static_cast<double>(j.result.instrs) / j.wall /
                                1e6);
            }
            if (j.result.sampledEnabled && (i <= 1 || !j.ok()))
                printSampled(j);
            if (j.ok())
                continue;
            ++failed;
            std::printf("check FAILED %s: %s\n", j.key().c_str(),
                        j.failures.front().c_str());
        }
        run.failed += failed;
        if (i == 0) {
            std::printf("pass 0 (references, run once): %zu jobs, %zu "
                        "failed\n",
                        once.jobs.size(), failed);
            continue;
        }
        std::printf("pass %zu%s: %.3f s, %zu jobs, %zu failed\n", i,
                    opt.trace && i + 1 == all.size() ? " (traced)" : "",
                    all[i]->wall, all[i]->jobs.size(), failed);
    }
    run.attempted += probes.attempted;
    run.failed += probes.failures.size();
    for (const std::string &f : probes.failures)
        std::printf("check FAILED probe %s\n", f.c_str());
    run.peakRssMb = peakRssMb();

    std::printf("setup buildDbSet(%g) x%zu:", scale,
                run.setupWalls.size());
    for (const double w : run.setupWalls)
        std::printf(" %.3f", w);
    std::printf(" s\n");

    bool correct = run.failed == 0;
    std::vector<Metric> json;
    const std::vector<Metric> wm = workloadMetrics(run);
    for (const Metric &m : wm) {
        printMetric("metric", m, def.name);
        if (m.name == "cgp_speedup" && def.name == "server-mix") {
            std::printf("  not comparable to paper Fig. 4: this is "
                        "O5+OM+CGP_4+D-combined+arb over plain O5, so it "
                        "includes the OM layout gain and D-side "
                        "prefetching\n");
        } else if (m.name == "cgp_speedup") {
            std::printf("  reference: paper Fig. 4, O5+OM+CGP_4 over "
                        "O5+OM = %.2f (simulated Alpha testbed); "
                        "relative error %+.1f%%\n",
                        paperCgpSpeedup,
                        100.0 * (m.value - paperCgpSpeedup) /
                            paperCgpSpeedup);
        }
        if (endToEnd.count(m.name) != (opt.trace ? 0u : 1u))
            continue;
        json.push_back(m);
    }
    std::printf("sim_digest %s %016" PRIx64
                " (seed %" PRIu64 ", %zu jobs of passes 0 and 1; exact: "
                "equal digests mean identical simulated statistics)\n",
                def.name.c_str(), simDigest({&once, &run.passes.front()}),
                opt.seed, once.jobs.size() + run.passes.front().jobs.size());

    if (opt.trace) {
        run.spans = tracer.spans();
        std::string why;
        if (!spansNest(run.spans, why)) {
            correct = false;
            std::printf("check FAILED spans: %s\n", why.c_str());
        }
        const std::string spanFile = opt.outDir + "/spans-" + def.name +
            "-seed" + std::to_string(opt.seed) + ".json";
        writeSpans(spanFile, run.spans);
        std::printf("spans: %zu written to %s\n", run.spans.size(),
                    spanFile.c_str());
        std::printf("%-20s %8s %12s %12s\n", "span", "calls", "total_s",
                    "self_s");
        for (const auto &[name, t] : totalsByName(run.spans)) {
            std::printf("%-20s %8" PRIu64 " %12.6f %12.6f\n",
                        name.c_str(), t.calls, t.total, t.self);
        }
        std::printf("tracing overhead: traced pass %.3f s - untraced "
                    "pass %.3f s = %+.3f s\n",
                    traced.wall, run.passes.front().wall,
                    traced.wall - run.passes.front().wall);
        std::printf("machine check: %u of %u self-assembled machines "
                    "reproduce runSimulation cycles and instrs\n",
                    probes.matched, probes.machines);
        for (const Metric &m : layerMetrics(run)) {
            printMetric("layer", m, def.name);
            json.push_back(m);
        }
    }

    for (const Metric &m : json)
        correct = correct && std::isfinite(m.value);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", run.attempted, run.failed,
                jsonMetrics(json).c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    try {
        return runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
