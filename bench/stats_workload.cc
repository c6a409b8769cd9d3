/**
 * @file
 * Workload anatomy: trace sizes, dynamic code footprint (distinct
 * I-cache lines), per-quantum footprint, steady-state vs cold
 * misses, and CGHC behaviour.  Not a paper figure — a measurement
 * aid for understanding what the simulations see.
 */

#include <iostream>
#include <unordered_set>

#include "codegen/layout.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"
#include "trace/expand.hh"
#include "util/table.hh"

int
main()
{
    using namespace cgp;

    std::cerr << "building database workloads...\n";
    DbWorkloadSet set = WorkloadFactory::buildDbSet();

    TablePrinter t("Workload anatomy");
    t.setHeader({"workload", "events", "instrs", "calls",
                 "instr/call", "I-lines(O5)", "I-KB(O5)",
                 "I-lines(OM)", "I-KB(OM)"});

    for (const auto &w : set.workloads) {
        LayoutBuilder builder(*w.registry);
        std::uint64_t instrs = 0, calls = 0;
        std::unordered_set<Addr> lines_o5, lines_om;

        {
            const CodeImage o5 = builder.buildOriginal();
            InstructionExpander ex(*w.registry, o5, *w.trace);
            DynInst i;
            while (ex.next(i))
                lines_o5.insert(i.pc >> 5);
            instrs = ex.emittedInstrs();
            calls = ex.emittedCalls();
        }
        {
            const CodeImage om =
                builder.buildPettisHansen(*w.omProfile);
            InstructionExpander ex(*w.registry, om, *w.trace);
            DynInst i;
            while (ex.next(i))
                lines_om.insert(i.pc >> 5);
        }

        t.addRow({w.name, TablePrinter::num(w.trace->size()),
                  TablePrinter::num(instrs), TablePrinter::num(calls),
                  TablePrinter::fixed(
                      static_cast<double>(instrs) /
                          static_cast<double>(calls),
                      1),
                  TablePrinter::num(lines_o5.size()),
                  TablePrinter::fixed(
                      static_cast<double>(lines_o5.size()) * 32.0 /
                          1024.0,
                      1),
                  TablePrinter::num(lines_om.size()),
                  TablePrinter::fixed(
                      static_cast<double>(lines_om.size()) * 32.0 /
                          1024.0,
                      1)});
    }
    t.print(std::cout);

    // Conflict-vs-capacity: misses under higher associativity.
    std::cout << "\nL1I misses vs associativity (O5 | OM):\n";
    for (const auto &w : set.workloads) {
        std::cout << "  " << w.name << ":";
        for (unsigned assoc : {2u, 8u, 32u}) {
            SimConfig c = SimConfig::o5();
            c.mem.l1i.assoc = assoc;
            const SimResult r5 = runSimulation(w, c);
            SimConfig cm = SimConfig::o5Om();
            cm.mem.l1i.assoc = assoc;
            const SimResult rm = runSimulation(w, cm);
            std::cout << "  " << assoc << "way:" << r5.icacheMisses
                      << "|" << rm.icacheMisses;
        }
        std::cout << "\n";
    }

    // CGHC behaviour under CGP_4.
    std::cout << "\nCGHC behaviour (OM+CGP_4):\n";
    for (const auto &w : set.workloads) {
        const SimResult r = runSimulation(
            w, SimConfig::withCgp(LayoutKind::PettisHansen, 4));
        std::cout << "  " << w.name << ": accesses=" << r.cghcAccesses
                  << " hits=" << r.cghcHits
                  << " cghc_issued=" << r.cghc.issued
                  << " nl_issued=" << r.nl.issued
                  << " squashed=" << r.squashedPrefetches << "\n";
    }
    return 0;
}
