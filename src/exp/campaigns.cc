#include "exp/campaigns.hh"

#include <algorithm>
#include <stdexcept>

#include "harness/workload.hh"
#include "spec/cpu2000.hh"

namespace cgp::exp
{

namespace
{

/** The smoke campaign's tiny synthetic programs (~100K instrs). */
spec::SpecProgramSpec
smokeProgram(const std::string &name, unsigned functions,
             double workPerCall)
{
    spec::SpecProgramSpec s;
    s.name = name;
    s.functions = functions;
    s.hotFunctions = functions / 2;
    s.workPerCall = workPerCall;
    s.trainInstrs = 120'000;
    s.testInstrs = 30'000;
    return s;
}

SimConfig
cgp4om()
{
    return SimConfig::withCgp(LayoutKind::PettisHansen, 4);
}

/** An axis point that swaps in a whole named configuration. */
AxisPoint
configPoint(std::string label, SimConfig config)
{
    return AxisPoint{std::move(label),
                     [config](SimConfig &c) { c = config; }};
}

} // anonymous namespace

const std::vector<std::string> &
dbWorkloadNames()
{
    static const std::vector<std::string> names = {
        "wisc-prof", "wisc-large-1", "wisc-large-2", "wisc+tpch"};
    return names;
}

std::vector<std::string>
cpu2000WorkloadNames()
{
    std::vector<std::string> names;
    for (const spec::SpecProgramSpec &s : spec::cpu2000Suite())
        names.push_back(s.name);
    return names;
}

const std::vector<std::string> &
smokeWorkloadNames()
{
    static const std::vector<std::string> names = {"smoke-a",
                                                   "smoke-b"};
    return names;
}

Workload
PaperWorkloadBank::resolve(const std::string &name)
{
    auto it = cache_.find(name);
    if (it != cache_.end())
        return it->second;

    const auto &db = dbWorkloadNames();
    if (!dbBuilt_ &&
        std::find(db.begin(), db.end(), name) != db.end()) {
        DbWorkloadSet set = WorkloadFactory::buildDbSet();
        for (Workload &w : set.workloads)
            cache_.emplace(w.name, std::move(w));
        dbBuilt_ = true;
        return cache_.at(name);
    }

    if (!cpuBuilt_) {
        const std::vector<std::string> cpu = cpu2000WorkloadNames();
        if (std::find(cpu.begin(), cpu.end(), name) != cpu.end()) {
            for (Workload &w :
                 WorkloadFactory::buildCpu2000Suite())
                cache_.emplace(w.name, std::move(w));
            cpuBuilt_ = true;
            return cache_.at(name);
        }
    }

    if (name == "smoke-a" || name == "smoke-b") {
        const auto program = name == "smoke-a"
            ? smokeProgram("smoke-a", 60, 50.0)
            : smokeProgram("smoke-b", 90, 70.0);
        Workload w = WorkloadFactory::buildSpec(program);
        cache_.emplace(name, w);
        return w;
    }

    throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace
{

CampaignSpec
makeFig4()
{
    CampaignSpec s;
    s.title = "Figure 4 — O5 vs OM vs CGP";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::o5Om(),
        SimConfig::withCgp(LayoutKind::Original, 2),
        SimConfig::withCgp(LayoutKind::Original, 4),
        SimConfig::withCgp(LayoutKind::PettisHansen, 2),
        SimConfig::withCgp(LayoutKind::PettisHansen, 4),
    };
    s.report.geomeans = {
        {"O5", "O5+OM", 1.11},
        {"O5", "O5+CGP_4", 1.40},
        {"O5", "O5+OM+CGP_4", 1.45},
        {"O5+OM", "O5+OM+CGP_4", 1.30},
    };
    return s;
}

CampaignSpec
makeFig5()
{
    CampaignSpec s;
    s.title = "Figure 5 — CGP_4 by CGHC size";
    s.workloads = dbWorkloadNames();
    s.base = cgp4om();
    ConfigAxis geom{"cghc", {}};
    const std::vector<std::pair<std::string, CghcConfig>> geoms = {
        {"CGHC-1K", CghcConfig::oneLevel1K()},
        {"CGHC-32K", CghcConfig::oneLevel32K()},
        {"CGHC-1K+16K", CghcConfig::twoLevel1K16K()},
        {"CGHC-2K+32K", CghcConfig::twoLevel2K32K()},
        {"CGHC-Inf", CghcConfig::infiniteSize()},
    };
    for (const auto &[label, g] : geoms) {
        CghcConfig geom_copy = g;
        geom.points.push_back(
            {label, [geom_copy](SimConfig &c) {
                 c.cghc = geom_copy;
             }});
    }
    s.axes.push_back(std::move(geom));
    s.report.normLabel = "CGHC-Inf";
    s.report.note =
        "Paper reference: CGHC-1K ~1.12x the infinite CGHC's cycles; "
        "CGHC-2K+32K and CGHC-32K within a few percent of infinite; "
        "on wisc+tpch the infinite CGHC is slightly worse than the "
        "best finite configurations.";
    return s;
}

CampaignSpec
makeFig6()
{
    CampaignSpec s;
    s.title = "Figure 6 — NL vs CGP vs perfect I-cache";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 2),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        SimConfig::withCgp(LayoutKind::PettisHansen, 2),
        SimConfig::withCgp(LayoutKind::PettisHansen, 4),
        SimConfig::perfectICacheOn(LayoutKind::PettisHansen),
    };
    s.report.tables = {FigureTable::CallSpacing};
    s.report.geomeans = {
        {"O5+OM+NL_4", "O5+OM+CGP_4", 1.07},
        {"O5+OM+CGP_4", "O5+OM+perf-Icache", 1.19},
    };
    s.report.note = "Paper reference: ~43 instructions between "
                    "successive calls in the DBMS workloads (§5.4).";
    return s;
}

CampaignSpec
makeFig7()
{
    CampaignSpec s;
    s.title = "Figure 7 — I-cache misses";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        cgp4om(),
    };
    s.report.tables = {FigureTable::IMisses};
    s.report.note = "Paper reference: I-cache misses cut vs O5 by "
                    "~21% (OM), ~77% (OM+NL), ~87% (OM+CGP).";
    return s;
}

CampaignSpec
makeFig8()
{
    CampaignSpec s;
    s.title = "Figure 8 — prefetch breakdown";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::withNL(LayoutKind::PettisHansen, 2),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        SimConfig::withCgp(LayoutKind::PettisHansen, 2),
        cgp4om(),
    };
    s.report.tables = {FigureTable::PrefetchClasses};
    s.report.note =
        "Paper reference: CGP issues ~3% more useful prefetches than "
        "NL with comparable useless counts; CGP_4's delayed hits are "
        "fewer than NL_4's (better timeliness).";
    return s;
}

CampaignSpec
makeFig9()
{
    CampaignSpec s;
    s.title = "Figure 9 — CGP prefetches by source";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {cgp4om()};
    s.report.tables = {FigureTable::CgpSources};
    s.report.note =
        "Paper reference: ~40% of the NL-issued prefetches are useful "
        "vs ~77% of the CGHC-issued ones; ~82% of the useless "
        "prefetches come from the NL part.";
    return s;
}

CampaignSpec
makeFig10()
{
    CampaignSpec s;
    s.title = "Figure 10 — CPU2000";
    s.workloads = cpu2000WorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        cgp4om(),
        SimConfig::perfectICacheOn(LayoutKind::PettisHansen),
    };
    s.report.tables = {FigureTable::Cpu2000};
    s.report.note =
        "Paper reference: only gcc (17% gap, 0.5% miss ratio) and "
        "crafty (9%, 0.3%) leave room for prefetching, and there "
        "NL_4 ~= CGP_4; the other five are I-cache insensitive, so "
        "CGP is unnecessary for them.";
    return s;
}

CampaignSpec
makeAblationRanl()
{
    CampaignSpec s;
    s.title = "Run-ahead NL ablation (§5.6)";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        SimConfig::withRunAheadNL(LayoutKind::PettisHansen, 4, 2),
        SimConfig::withRunAheadNL(LayoutKind::PettisHansen, 4, 4),
        SimConfig::withRunAheadNL(LayoutKind::PettisHansen, 4, 8),
    };
    s.report.tables = {FigureTable::PrefetchClasses};
    s.report.note =
        "Paper reference: run-ahead NL prefetches too many useless "
        "far-ahead lines and misses needed near lines; overall "
        "performance is much worse than plain NL.";
    return s;
}

CampaignSpec
makeAblationDepth()
{
    CampaignSpec s;
    s.title = "CGP_N depth sweep (OM binary)";
    s.workloads = dbWorkloadNames();
    ConfigAxis depth{"depth", {}};
    for (const unsigned n : {1u, 2u, 4u, 6u, 8u}) {
        depth.points.push_back(configPoint(
            "", SimConfig::withCgp(LayoutKind::PettisHansen, n)));
    }
    s.axes.push_back(std::move(depth));
    return s;
}

CampaignSpec
makeAblationLayout()
{
    CampaignSpec s;
    s.title = "CGP without OM (legacy binaries, §5.2)";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::withCgp(LayoutKind::Original, 4),
        cgp4om(),
    };
    s.report.geomeans = {
        {"O5", "O5+CGP_4", 1.40},
        {"O5", "O5+OM+CGP_4", 1.45},
    };
    s.report.note =
        "Paper reference: CGP_4 alone achieves ~40% over O5 (no "
        "source recompilation needed); adding OM raises it to ~45%.";
    return s;
}

CampaignSpec
makeAblationSwCgp()
{
    CampaignSpec s;
    s.title = "Software CGP vs hardware CGP (§6)";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        SimConfig::withSoftwareCgp(LayoutKind::PettisHansen, 4),
        cgp4om(),
    };
    s.report.tables = {FigureTable::IMisses};
    s.report.note =
        "Expected: SW-CGP recovers much of hardware CGP's benefit "
        "using profile feedback alone, but cannot adapt to runtime "
        "call sequences.";
    return s;
}

CampaignSpec
makeAblationAssoc()
{
    CampaignSpec s;
    s.title = "CGHC associativity (§3.2)";
    s.workloads = dbWorkloadNames();
    ConfigAxis assoc{"assoc", {}};
    for (const unsigned a : {1u, 2u, 4u}) {
        CghcConfig geom = CghcConfig::twoLevel2K32K();
        geom.assoc = a;
        assoc.points.push_back(configPoint(
            geom.describe(),
            SimConfig::withCgpGeometry(LayoutKind::PettisHansen, 4,
                                       geom)));
    }
    s.axes.push_back(std::move(assoc));
    s.report.normDigits = 4;
    s.report.note = "Expected: CGHC associativity barely matters, "
                    "confirming the paper's direct-mapped choice.";
    return s;
}

CampaignSpec
makeFigDDstall()
{
    CampaignSpec s;
    s.title = "Figure D — D-side prefetching (beyond the paper)";
    // One pure-Wisconsin mix and the Wisconsin+TPC-H mix: the
    // acceptance bar is a demand-miss reduction on both.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::withDPrefetch(DataPrefetchKind::Stride),
        SimConfig::withDPrefetch(DataPrefetchKind::Correlation),
        SimConfig::withDPrefetch(DataPrefetchKind::Semantic),
        SimConfig::withDPrefetch(DataPrefetchKind::Combined),
    };
    s.report.tables = {FigureTable::DataSide};
    s.report.note =
        "Expectation: the combined engine cuts L1-D demand misses "
        "below the no-dprefetch baseline on both workloads; semantic "
        "hints cover pointer-chasing B-tree descents that stride "
        "cannot.";
    return s;
}

CampaignSpec
makeFigIDInteraction()
{
    CampaignSpec s;
    s.title =
        "Figure ID — I+D prefetch interaction on the shared L2 port";
    // Same two mixes as figD_dstall.  Four points: each side alone,
    // both un-throttled (they fight for the port), both behind the
    // accuracy-gated arbiter.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    s.explicitConfigs = {
        cgp4om(),
        SimConfig::withDPrefetch(DataPrefetchKind::Combined),
        SimConfig::withIPlusD(DataPrefetchKind::Combined, false),
        SimConfig::withIPlusD(DataPrefetchKind::Combined, true),
    };
    s.report.tables = {FigureTable::Traffic};
    s.report.note =
        "Expectation: the throttled I+D point shows fewer "
        "squashed+duplicate prefetches than the un-throttled one on "
        "wisc-large-1, while keeping at least 95% of its "
        "useful-prefetch count.";
    return s;
}

CampaignSpec
makeArbiterSweep()
{
    CampaignSpec s;
    s.title = "Shared-arbiter knob sweep (accuracy gate, probe "
              "period, duplicate filter)";
    // The interaction mixes: one pure-Wisconsin, one with TPC-H —
    // the workloads the arbiter was built for.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    s.base = SimConfig::withIPlusD(DataPrefetchKind::Combined, true);

    ConfigAxis gate{"lowAccuracy", {}};
    for (const double acc : {0.10, 0.20, 0.40}) {
        gate.points.push_back(
            {"acc" + std::to_string(static_cast<int>(acc * 100 + 0.5)),
             [acc](SimConfig &c) {
                 c.mem.arbiter.lowAccuracy = acc;
             }});
    }
    ConfigAxis probe{"probePeriod", {}};
    for (const unsigned p : {4u, 8u, 16u}) {
        probe.points.push_back(
            {"probe" + std::to_string(p), [p](SimConfig &c) {
                 c.mem.arbiter.probePeriod = p;
             }});
    }
    ConfigAxis filter{"filterWindow", {}};
    for (const unsigned w : {64u, 128u, 256u}) {
        filter.points.push_back(
            {"filt" + std::to_string(w), [w](SimConfig &c) {
                 c.mem.arbiter.filterWindow = w;
             }});
    }
    s.axes.push_back(std::move(gate));
    s.axes.push_back(std::move(probe));
    s.axes.push_back(std::move(filter));
    return s;
}

CampaignSpec
makeServerScale()
{
    CampaignSpec s;
    s.title = "Server scaling — cores x sessions on one shared L2";
    // The two concurrent mixes, served by the multi-core model:
    // every point runs the same closed-loop query population, so
    // cycles-to-serve and the latency percentiles compare directly
    // across core counts and prefetch configurations.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    for (const unsigned cores : {1u, 2u, 4u}) {
        for (const unsigned sessions : {16u, 256u}) {
            s.explicitConfigs.push_back(SimConfig::withServer(
                SimConfig::o5(), cores, sessions, 12));
            s.explicitConfigs.push_back(SimConfig::withServer(
                SimConfig::withIPlusD(DataPrefetchKind::Combined,
                                      true),
                cores, sessions, 12));
        }
    }
    s.report.note =
        "Expectation: adding cores raises throughput sub-linearly "
        "(shared-port wait cycles grow with the core count), and the "
        "prefetching configuration recovers part of the gap by "
        "hiding the per-core cold-cache penalty after each session "
        "bind.";
    return s;
}

CampaignSpec
makeServerSmoke()
{
    CampaignSpec s;
    s.title = "Server smoke (2 cores x 8 sessions)";
    s.workloads = smokeWorkloadNames();
    s.explicitConfigs = {
        SimConfig::withServer(SimConfig::o5Om(), 2, 8, 4),
        SimConfig::withServer(cgp4om(), 2, 8, 4),
    };
    return s;
}

CampaignSpec
makeFigSampled()
{
    CampaignSpec s;
    s.title = "Figure S — sampled vs full-detail "
              "(accuracy x speedup)";
    // The two largest bundled mixes: the workloads where sampling
    // pays.  Each sampled point is compared against the full-detail
    // baseline of the same prefetch configuration — the CI must
    // contain the ground truth while the cycle loop runs >= 5x less.
    s.workloads = {"wisc-large-2", "wisc+tpch"};
    s.explicitConfigs = {
        SimConfig::o5Om(),
        cgp4om(),
        SimConfig::withSampling(SimConfig::o5Om(), 20000, 200000,
                                100000),
        SimConfig::withSampling(cgp4om(), 20000, 200000, 100000),
        SimConfig::withSampling(cgp4om(), 50000, 500000, 100000),
        SimConfig::withSampling(cgp4om(), 10000, 50000, 100000),
    };
    s.report.note =
        "Expectation: every 95% CI contains its full-detail ground "
        "truth with single-digit relative error, while the 10:1 "
        "window/period points run the detailed cycle loop at least "
        "5x less than the full-detail baseline.";
    return s;
}

CampaignSpec
makeSampledSmoke()
{
    CampaignSpec s;
    s.title = "Sampled smoke (2K windows / 10K periods)";
    // The smoke traces run ~120K instructions, so the windows must
    // be small for several periods to fit after warmup.
    s.workloads = smokeWorkloadNames();
    s.explicitConfigs = {
        SimConfig::withSampling(SimConfig::o5Om(), 2000, 10000,
                                10000),
        SimConfig::withSampling(cgp4om(), 2000, 10000, 10000),
    };
    return s;
}

CampaignSpec
makeSmoke()
{
    CampaignSpec s;
    s.title = "Campaign smoke (2x2)";
    s.workloads = smokeWorkloadNames();
    ConfigAxis cfg{"config", {}};
    cfg.points.push_back(configPoint("", SimConfig::o5Om()));
    cfg.points.push_back(configPoint("", cgp4om()));
    s.axes.push_back(std::move(cfg));
    return s;
}

/** A registered campaign: its name, maker, and group ("figures",
 *  "ablations", or none: the smokes only run by name). */
struct Entry
{
    const char *name;
    CampaignSpec (*make)();
    const char *group;
};

const Entry registry[] = {
    {"fig4", makeFig4, "figures"},
    {"fig5", makeFig5, "figures"},
    {"fig6", makeFig6, "figures"},
    {"fig7", makeFig7, "figures"},
    {"fig8", makeFig8, "figures"},
    {"fig9", makeFig9, "figures"},
    {"fig10", makeFig10, "figures"},
    {"figD_dstall", makeFigDDstall, "figures"},
    {"figID_interaction", makeFigIDInteraction, "figures"},
    {"server-scale", makeServerScale, "figures"},
    {"fig_sampled", makeFigSampled, "figures"},
    {"ablation-ranl", makeAblationRanl, "ablations"},
    {"ablation-design-depth", makeAblationDepth, "ablations"},
    {"ablation-design-layout", makeAblationLayout, "ablations"},
    {"ablation-swcgp", makeAblationSwCgp, "ablations"},
    {"ablation-swcgp-assoc", makeAblationAssoc, "ablations"},
    {"arbiter-sweep", makeArbiterSweep, "ablations"},
    {"smoke", makeSmoke, ""},
    {"server-smoke", makeServerSmoke, ""},
    {"sampled-smoke", makeSampledSmoke, ""},
};

} // anonymous namespace

std::vector<std::string>
campaignNames()
{
    std::vector<std::string> names;
    for (const Entry &e : registry)
        names.push_back(e.name);
    return names;
}

CampaignSpec
paperCampaign(const std::string &name)
{
    for (const Entry &e : registry) {
        if (name == e.name) {
            CampaignSpec s = e.make();
            s.name = name;
            return s;
        }
    }
    throw std::invalid_argument("unknown campaign '" + name + "'");
}

std::vector<std::string>
campaignGroup(const std::string &name)
{
    if (name != "figures" && name != "ablations" && name != "all") {
        paperCampaign(name); // validates
        return {name};
    }
    std::vector<std::string> names;
    for (const Entry &e : registry) {
        if (name == e.group || (name == "all" && *e.group != '\0'))
            names.push_back(e.name);
    }
    return names;
}

} // namespace cgp::exp
