/**
 * @file
 * Quickstart: run one database workload under the baseline and under
 * CGP, and print the speedup.  This is the ~30-line tour of the
 * public API: WorkloadFactory -> SimConfig -> runSimulation.
 */

#include <iostream>

#include "harness/report.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"

int
main()
{
    using namespace cgp;

    std::cout << "Building the wisc-prof workload (real storage "
                 "manager + Wisconsin queries)...\n";
    DbWorkloadSet set = WorkloadFactory::buildDbSet();
    const Workload &w = set.workloads[0]; // wisc-prof

    std::cout << "Simulating the O5 baseline...\n";
    const SimResult base = runSimulation(w, SimConfig::o5());

    std::cout << "Simulating O5+OM+CGP_4...\n";
    const SimResult cgp = runSimulation(
        w, SimConfig::withCgp(LayoutKind::PettisHansen, 4));

    std::cout << "\n";
    writeComparison({base, cgp}, std::cout);
    std::cout << "\nDetailed CGP run:\n" << toJson(cgp).dump(2) << "\n";
    std::cout << "\n  speedup: "
              << static_cast<double>(base.cycles) /
                     static_cast<double>(cgp.cycles)
              << "x\n";
    return 0;
}
