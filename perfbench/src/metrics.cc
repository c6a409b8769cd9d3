#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "harness/report.hh"

namespace perfbench
{

using namespace cgp;

namespace
{

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
pki(std::uint64_t events, std::uint64_t instrs)
{
    return ratio(1000.0 * static_cast<double>(events),
                 static_cast<double>(instrs));
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double x : xs)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(xs.size()));
}

template <class Match>
const JobRecord *
findJob(const PassRecord &pass, const std::string &stage,
        const std::string &workload, Match match)
{
    for (const JobRecord &j : pass.jobs) {
        if (j.stage == stage && j.workload == workload && j.ok() &&
            match(j.config))
            return &j;
    }
    return nullptr;
}

bool
isOmBaseline(const SimConfig &c)
{
    return c.layout == LayoutKind::PettisHansen &&
        c.prefetch == PrefetchKind::None;
}

bool
isCgp4(const SimConfig &c)
{
    return c.prefetch == PrefetchKind::Cgp && c.depth == 4;
}

/** Traces in first-appearance order among @p pass's jobs. */
std::vector<std::string>
tracesOf(const PassRecord &pass)
{
    std::vector<std::string> out;
    for (const JobRecord &j : pass.jobs) {
        if (std::find(out.begin(), out.end(), j.workload) == out.end())
            out.push_back(j.workload);
    }
    return out;
}

/**
 * Modelled speedup of CGP over its baseline, as this workload sees
 * it: the geomean over traces of cycles(O5+OM) / cycles(O5+OM+CGP_4)
 * (full detail, or the sampled clock estimates at the direct point's
 * window and period), or for
 * the server the geomean over query streams of the throughput ratio of
 * the prefetching server over O5.
 */
double
cgpSpeedup(const WorkloadDef &def, const PassRecord &pass)
{
    std::vector<double> xs;
    if (def.name == "server-mix") {
        // Pair the two configurations of each query stream (seed).
        std::map<std::uint64_t, std::pair<double, double>> bySeed;
        for (const JobRecord &j : pass.jobs) {
            if (j.stage != "server" || !j.ok())
                continue;
            auto &[base, cgp] = bySeed[j.config.server.seed];
            (j.config.prefetch == PrefetchKind::Cgp ? cgp : base) =
                j.result.server.queriesPerMcycle();
        }
        for (const auto &[seed, qpmc] : bySeed) {
            if (qpmc.first > 0.0 && qpmc.second > 0.0)
                xs.push_back(qpmc.second / qpmc.first);
        }
        return geomean(xs);
    }
    const bool sampled = def.name == "sampled-ckpt";
    const std::string stage = sampled ? "cold" : "detail";
    const auto geometry = [&](const SimConfig &c) {
        if (!sampled)
            return !c.sample.enabled;
        const sample::SampleConfig &d = directSampled(def).sample;
        return c.sample.enabled && c.sample.windowCycles == d.windowCycles &&
            c.sample.periodCycles == d.periodCycles;
    };
    const auto base = [&](const SimConfig &c) {
        return isOmBaseline(c) && geometry(c);
    };
    const auto cgp = [&](const SimConfig &c) {
        return isCgp4(c) && geometry(c);
    };
    for (const std::string &trace : tracesOf(pass)) {
        const JobRecord *b = findJob(pass, stage, trace, base);
        const JobRecord *c = findJob(pass, stage, trace, cgp);
        if (b != nullptr && c != nullptr && c->result.cycles != 0) {
            xs.push_back(static_cast<double>(b->result.cycles) /
                         static_cast<double>(c->result.cycles));
        }
    }
    return geomean(xs);
}

/** The prefetching server's job (CGP_4+D-combined+arb). */
const JobRecord *
serverJob(const PassRecord &pass)
{
    for (const JobRecord &j : pass.jobs) {
        if (j.stage == "server" && j.ok() &&
            j.config.prefetch == PrefetchKind::Cgp)
            return &j;
    }
    return nullptr;
}

/**
 * max |sampled CPI - full-detail CPI| / full-detail CPI over the cold
 * pass, in %; the reference CPI is the one the band check used.
 */
double
sampledCpiErrPct(const PassRecord &pass)
{
    double worst = 0.0;
    for (const JobRecord &j : pass.jobs) {
        if (j.stage != "cold" || !j.ok() || j.truthCpi <= 0.0)
            continue;
        worst = std::max(worst, 100.0 *
                                    std::fabs(j.result.sampled.cpi.mean -
                                              j.truthCpi) /
                                    j.truthCpi);
    }
    return worst;
}

Metric
metric(std::string name, double value, std::string unit,
       std::string better, bool exact, bool applies = true)
{
    Metric m;
    m.name = std::move(name);
    m.value = applies && std::isfinite(value) ? value : 0.0;
    m.unit = std::move(unit);
    m.better = std::move(better);
    m.exact = exact;
    m.applies = applies;
    return m;
}

/** Summed counters of a pass's full-detail (non-sampled) jobs. */
struct ModelTotals
{
    std::uint64_t instrs = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t busLines = 0;
    std::uint64_t arbIssued = 0;
    std::uint64_t arbDeferred = 0;
    std::uint64_t arbDropped = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t cghcAccesses = 0;
    std::uint64_t cghcHits = 0;
    std::uint64_t squashed = 0;
    PrefetchBreakdown nl;
    PrefetchBreakdown cghc;
    PrefetchBreakdown dpf;
};

void
add(PrefetchBreakdown &a, const PrefetchBreakdown &b)
{
    a.issued += b.issued;
    a.prefHits += b.prefHits;
    a.delayedHits += b.delayedHits;
    a.useless += b.useless;
}

ModelTotals
modelTotals(const PassRecord &pass)
{
    ModelTotals t;
    for (const JobRecord &j : pass.jobs) {
        const SimResult &r = j.result;
        if (!j.ok() || r.sampledEnabled)
            continue;
        t.instrs += r.instrs;
        t.l1iMisses += r.icacheMisses;
        t.l1dMisses += r.dcacheMisses;
        t.l2Misses += r.l2Misses;
        t.busLines += r.busLines;
        for (const ArbiterBreakdown *a : {&r.arbNl, &r.arbCghc, &r.arbDpf}) {
            t.arbIssued += a->issued;
            t.arbDeferred += a->deferred;
            t.arbDropped += a->dropped;
        }
        t.mispredicts += r.branchMispredicts;
        t.cghcAccesses += r.cghcAccesses;
        t.cghcHits += r.cghcHits;
        t.squashed += r.squashedPrefetches;
        add(t.nl, r.nl);
        add(t.cghc, r.cghc);
        add(t.dpf, r.dpf);
    }
    return t;
}

/**
 * False for the layers @p workload bypasses: the server only runs in
 * server-mix, sampling and campaigns only in sampled-ckpt, and only
 * the server's configuration has D-side engines and the arbiter.
 */
bool
layerApplies(const std::string &name, const std::string &workload)
{
    const auto has = [&name](const char *prefix) {
        return name.rfind(prefix, 0) == 0;
    };
    if (has("server.") || has("dprefetch.") || has("mem.arb_"))
        return workload == "server-mix";
    if (has("sample.") || has("exp."))
        return workload == "sampled-ckpt";
    return true;
}

} // anonymous namespace

std::uint64_t
samplesBeyondP95(std::uint64_t n)
{
    // Nearest rank of p95 is ceil(0.95 n), computed exactly.
    const std::uint64_t rank = (95 * n + 99) / 100;
    return n - rank;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<Metric>
workloadMetrics(const RunData &run)
{
    const WorkloadDef &def = *run.def;
    const PassRecord &first = run.passes.front();
    const bool server = def.name == "server-mix";
    const bool sampled = def.name == "sampled-ckpt";

    std::vector<double> walls;
    std::vector<double> smpRatios;
    double instrs = 0.0;
    double jobWall = 0.0;
    for (const PassRecord &p : run.passes) {
        walls.push_back(p.wall);
        jobWall += p.jobWall;
        for (const JobRecord &j : p.jobs)
            instrs += static_cast<double>(j.result.instrs);
        if (sampled)
            smpRatios.push_back(ratio(p.smpFullWall, p.smpSampledWall));
    }

    const JobRecord *srv = serverJob(first);
    const server::ServerStats st =
        srv != nullptr ? srv->result.server : server::ServerStats{};

    std::vector<Metric> m;
    m.push_back(metric("setup_s", median(run.setupWalls), "s", "lower",
                       false));
    m.push_back(metric("wall_s", median(walls), "s", "lower", false));
    m.push_back(metric("sim_mips", ratio(instrs, jobWall) / 1e6,
                       "Minstr/s", "higher", false));
    m.push_back(metric("peak_rss_mb", run.peakRssMb, "MiB", "lower",
                       false));
    m.push_back(metric("fail_frac",
                       ratio(static_cast<double>(run.failed),
                             static_cast<double>(run.attempted)),
                       "frac", "lower", false));
    m.push_back(metric("cgp_speedup", cgpSpeedup(def, first), "x",
                       "higher", true));
    m.push_back(metric("srv_qpmc", st.queriesPerMcycle(), "q/Mcyc",
                       "higher", true, server));
    m.push_back(metric("srv_lat_p50_mcyc",
                       static_cast<double>(st.latencyP50) / 1e6, "Mcyc",
                       "lower", true, server));
    Metric p95 = metric("srv_lat_p95_mcyc",
                        static_cast<double>(st.latencyP95) / 1e6,
                        "Mcyc", "lower", true, server);
    if (server) {
        p95.note = std::to_string(st.queriesServed) + " queries, " +
            std::to_string(samplesBeyondP95(st.queriesServed)) +
            " beyond p95";
    }
    m.push_back(p95);
    m.push_back(metric("smp_cpi_err_pct", sampledCpiErrPct(first), "%",
                       "lower", true, sampled));
    m.push_back(metric("smp_speedup", median(smpRatios), "x", "higher",
                       false, sampled));
    return m;
}

std::vector<Metric>
layerMetrics(const RunData &run)
{
    const PassRecord &pass = *run.traced;
    const ProbeRecord &probe = *run.probes;
    const auto totals = totalsByName(run.spans);
    const auto self = [&totals](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.self;
    };
    const auto calls = [&totals](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0
                                  : static_cast<double>(it->second.calls);
    };
    const ModelTotals t = modelTotals(pass);
    const double cycles = static_cast<double>(probe.cycles);

    // Server and sampled blocks of the traced pass.
    double serverCoreCycles = 0.0;
    std::uint64_t portWait = 0;
    std::uint64_t portRequests = 0;
    std::uint64_t served = 0;
    std::uint64_t binds = 0;
    std::vector<double> utils;
    double detailedCycles = 0.0;
    double sampledCycles = 0.0;
    std::vector<double> halfWidths;
    for (const JobRecord &j : pass.jobs) {
        if (!j.ok())
            continue;
        const SimResult &r = j.result;
        if (r.serverEnabled) {
            serverCoreCycles += static_cast<double>(r.server.cycles) *
                static_cast<double>(r.server.cores);
            portWait += r.server.portWaitCycles;
            served += r.server.queriesServed;
            binds += r.server.binds;
            for (const auto &c : r.server.perCore) {
                utils.push_back(c.utilization());
                portRequests += c.busLines;
            }
        }
        if (r.sampledEnabled) {
            detailedCycles += static_cast<double>(r.sampled.detailedCycles);
            sampledCycles += static_cast<double>(r.cycles);
            halfWidths.push_back(
                100.0 *
                ratio(0.5 * (r.sampled.cpi.ciHigh - r.sampled.cpi.ciLow),
                      r.sampled.cpi.mean));
        }
    }
    double utilMean = 0.0;
    for (const double u : utils)
        utilMean += u / static_cast<double>(utils.size());
    double halfWidthMean = 0.0;
    for (const double h : halfWidths)
        halfWidthMean += h / static_cast<double>(halfWidths.size());

    const double runS = self("cpu.run");
    const double ffwdS = self("cpu.ffwd");
    const double expandS = self("trace.expand");
    const double serverS = self("server.run");

    std::vector<Metric> m;
    const std::string &workload = run.def->name;
    const auto host = [&](const char *name, double v, const char *unit,
                          const char *better = "lower") {
        m.push_back(metric(name, v, unit, better, false,
                           layerApplies(name, workload)));
    };
    const auto model = [&](const char *name, double v, const char *unit,
                           const char *better) {
        m.push_back(metric(name, v, unit, better, true,
                           layerApplies(name, workload)));
    };
    host("harness.build_s",
         ratio(self("harness.build"), calls("harness.build")), "s");
    model("trace.events", static_cast<double>(run.traceEvents), "count",
          "lower");
    host("codegen.bind_s", self("codegen.bind"), "s");
    host("trace.expand_s", expandS, "s");
    host("trace.expand_mips",
         ratio(static_cast<double>(probe.drainInstrs), expandS) / 1e6,
         "Minstr/s", "higher");
    model("trace.instrs_per_call",
          ratio(static_cast<double>(probe.drainInstrs),
                static_cast<double>(probe.drainCalls)),
          "instr", "lower");
    host("cpu.run_s", runS, "s");
    host("cpu.ffwd_s", ffwdS, "s");
    host("cpu.timing_s", runS - ffwdS, "s");
    host("cpu.ns_per_cycle", ratio(runS * 1e9, cycles), "ns");
    model("cpu.idle_cycle_frac",
          ratio(static_cast<double>(probe.idleCycles), cycles), "frac",
          "lower");
    model("cpu.fetch_icache_stall_frac",
          ratio(static_cast<double>(probe.icacheStallCycles), cycles),
          "frac", "lower");
    model("cpu.fetch_branch_stall_frac",
          ratio(static_cast<double>(probe.branchStallCycles), cycles),
          "frac", "lower");
    model("cpu.fetch_queue_full_frac",
          ratio(static_cast<double>(probe.queueFullCycles), cycles),
          "frac", "lower");
    host("mem.functional_s", ffwdS - expandS, "s");
    model("mem.l1i_mpki", pki(t.l1iMisses, t.instrs), "pki", "lower");
    model("mem.l1d_mpki", pki(t.l1dMisses, t.instrs), "pki", "lower");
    model("mem.l2_mpki", pki(t.l2Misses, t.instrs), "pki", "lower");
    model("mem.bus_lines_pki", pki(t.busLines, t.instrs), "pki", "lower");
    model("mem.arb_drop_frac",
          ratio(static_cast<double>(t.arbDropped),
                static_cast<double>(t.arbIssued + t.arbDropped)),
          "frac", "lower");
    model("mem.arb_deferred_pki", pki(t.arbDeferred, t.instrs), "pki",
          "lower");
    model("branch.mpki", pki(t.mispredicts, t.instrs), "pki", "lower");
    model("prefetch.cghc_hit_rate",
          ratio(static_cast<double>(t.cghcHits),
                static_cast<double>(t.cghcAccesses)),
          "frac", "higher");
    model("prefetch.cghc_useful_frac", t.cghc.usefulFraction(), "frac",
          "higher");
    model("prefetch.cghc_delayed_frac",
          ratio(static_cast<double>(t.cghc.delayedHits),
                static_cast<double>(t.cghc.prefHits + t.cghc.delayedHits)),
          "frac", "lower");
    model("prefetch.nl_useful_frac", t.nl.usefulFraction(), "frac",
          "higher");
    model("prefetch.squashed_pki", pki(t.squashed, t.instrs), "pki",
          "lower");
    model("dprefetch.useful_frac", t.dpf.usefulFraction(), "frac",
          "higher");
    model("dprefetch.issued_pki", pki(t.dpf.issued, t.instrs), "pki",
          "lower");
    host("server.run_s", serverS, "s");
    host("server.ns_per_core_cycle", ratio(serverS * 1e9, serverCoreCycles),
         "ns");
    model("server.port_wait_per_req",
          ratio(static_cast<double>(portWait),
                static_cast<double>(portRequests)),
          "cycles", "lower");
    model("server.core_util", utilMean, "frac", "higher");
    model("server.queries_served", static_cast<double>(served), "count",
          "higher");
    model("server.binds", static_cast<double>(binds), "count", "lower");
    host("sample.run_s", self("sample.run"), "s");
    model("sample.detail_cycle_frac", ratio(detailedCycles, sampledCycles),
          "frac", "lower");
    model("sample.cpi_ci_halfwidth_pct", halfWidthMean, "%", "lower");
    host("sample.ckpt_save_s", self("sample.ckpt_save"), "s");
    host("sample.ckpt_load_s", self("sample.ckpt_load"), "s");
    model("sample.ckpt_bytes", static_cast<double>(pass.checkpointBytes),
          "B", "lower");
    host("exp.pass_cold_s", pass.coldWall, "s");
    host("exp.pass_warm_s", pass.warmWall, "s");
    model("exp.artifact_bytes", static_cast<double>(pass.artifactBytes),
          "B", "lower");
    return m;
}

std::uint64_t
simDigest(std::initializer_list<const PassRecord *> passes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string &s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    for (const PassRecord *pass : passes) {
        for (const JobRecord &j : pass->jobs) {
            mix(j.key());
            mix(toJson(j.result).dump());
        }
    }
    return h;
}

void
checkRepeat(const PassRecord &first, PassRecord &pass)
{
    for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
        JobRecord &j = pass.jobs[i];
        if (!j.ok())
            continue;
        if (i >= first.jobs.size() || first.jobs[i].key() != j.key()) {
            j.failures.push_back("job set differs from the first pass");
        } else if (first.jobs[i].ok() &&
                   !(first.jobs[i].result == j.result)) {
            j.failures.push_back("result differs from the first pass");
        }
    }
}

} // namespace perfbench
