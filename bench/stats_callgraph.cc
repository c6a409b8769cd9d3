/**
 * @file
 * Call graph statistics (paper §3.2): the ATOM measurement that
 * motivated the 8-slot CGHC entry — "80% of the functions have
 * calls to fewer than 8 distinct functions" — recomputed over our
 * workloads' dynamic call graphs.
 */

#include <iostream>

#include "codegen/profile.hh"
#include "harness/workload.hh"
#include "util/table.hh"

int
main()
{
    using namespace cgp;

    std::cerr << "building database workloads...\n";
    DbWorkloadSet set = WorkloadFactory::buildDbSet();

    const CallGraphAnalyzer dbms(*set.omProfile);
    TablePrinter t("Call graph statistics (paper §3.2)");
    t.setHeader({"program", "calling funcs", "<8 distinct callees",
                 "max callees"});
    t.addRow({"dbms (wisc-prof + wisc+tpch profile)",
              TablePrinter::num(dbms.callerCount()),
              TablePrinter::percent(
                  dbms.fractionWithFewerCalleesThan(8)),
              TablePrinter::num(dbms.maxDistinctCallees())});

    for (const auto &w : WorkloadFactory::buildCpu2000Suite()) {
        const CallGraphAnalyzer a(*w.omProfile);
        t.addRow({w.name, TablePrinter::num(a.callerCount()),
                  TablePrinter::percent(
                      a.fractionWithFewerCalleesThan(8)),
                  TablePrinter::num(a.maxDistinctCallees())});
    }
    t.print(std::cout);

    std::cout << "\nPaper reference: ~80% of functions call fewer "
                 "than 8 distinct functions, justifying 8 callee "
                 "slots per CGHC entry (one 32-byte line).\n";
    return 0;
}
