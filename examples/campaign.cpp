/**
 * @file
 * Defining and running an experiment campaign programmatically:
 * declare a spec with a config axis, run it on the parallel engine
 * with a resumable run directory, and read results back by
 * (workload, label).  The campaign runs twice on the same run
 * directory to show resume in action: the second pass loads every
 * job instead of simulating.
 */

#include <filesystem>
#include <iostream>

#include "exp/artifact.hh"
#include "exp/engine.hh"
#include "harness/workload.hh"
#include "spec/cpu2000.hh"

int
main()
{
    using namespace cgp;

    // A campaign is data: workloads x labeled points on an axis.
    exp::CampaignSpec spec;
    spec.name = "example";
    spec.title = "Prefetch depth on a tiny SPEC proxy";
    spec.workloads = {"proxy"};
    spec.base = SimConfig::withCgp(LayoutKind::PettisHansen, 1);

    exp::ConfigAxis depth{"depth", {}};
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        depth.points.push_back(
            {"CGP_" + std::to_string(n),
             [n](SimConfig &c) { c.depth = n; }});
    }
    spec.axes.push_back(std::move(depth));

    // Workloads are resolved by name, once, before the pool starts.
    spec::SpecProgramSpec program;
    program.name = "proxy";
    program.functions = 60;
    program.hotFunctions = 30;
    program.workPerCall = 50.0;
    program.trainInstrs = 120'000;
    program.testInstrs = 30'000;
    exp::InMemoryProvider provider(
        {WorkloadFactory::buildSpec(program)});

    exp::EngineOptions opt;
    opt.threads = 4;
    // Per-job progress lines land in completion order, which varies
    // with scheduling; examples keep stdout byte-deterministic.
    opt.verbose = false;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "cgp-example-campaign";
    std::filesystem::remove_all(dir);
    opt.runDir = dir.string();

    exp::CampaignRun run;
    for (const char *pass : {"first", "second"}) {
        run = exp::runCampaign(spec, provider, opt);
        std::cout << pass << " pass: executed " << run.executed
                  << ", resumed " << run.skipped << "\n";
    }
    std::filesystem::remove_all(dir);

    std::cout << "\n";
    exp::printCampaign(run, spec.report, std::cout);

    // Individual results are addressable by (workload, label).
    const SimResult &best = run.at("proxy", "CGP_4");
    std::cout << "CGP_4 cycles: " << best.cycles << "\n";
    return 0;
}
