/**
 * @file
 * A single-core machine assembled from the simulator's public classes
 * (MemoryHierarchy, the I-side prefetchers, the D-side engine factory,
 * InstructionExpander, Core), so the traced run can read Core::stats()
 * and time Core::run / Core::fastForward on their own.  It must
 * reproduce runSimulation's cycles and instructions exactly.
 */

#ifndef PERFBENCH_MACHINE_HH
#define PERFBENCH_MACHINE_HH

#include <cstdint>
#include <memory>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "dprefetch/dprefetcher.hh"
#include "harness/simconfig.hh"
#include "harness/workload.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "trace/expand.hh"

namespace perfbench
{

/** The expander settings runSimulation uses for @p config. */
cgp::ExpanderConfig expanderConfig(const cgp::SimConfig &config);

/** Bind @p workload's registry under @p config's layout. */
cgp::CodeImage bindLayout(const cgp::Workload &workload,
                          const cgp::SimConfig &config);

/** Instructions and calls an expander drain of the trace emits. */
struct DrainCount
{
    std::uint64_t instrs = 0;
    std::uint64_t calls = 0;
};

DrainCount drainExpander(const cgp::Workload &workload,
                         const cgp::CodeImage &image,
                         const cgp::SimConfig &config);

/**
 * One single-core machine over the whole trace.  Members reference
 * each other, so it is neither copied nor moved.  Supports the
 * configurations the benchmark uses: no I-prefetch, next-N-line or
 * CGP, with any D-side engine and the arbiter on or off.
 */
class Machine
{
  public:
    Machine(const cgp::Workload &workload, const cgp::CodeImage &image,
            const cgp::SimConfig &config);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    cgp::Core &core() { return core_; }

  private:
    cgp::InstructionExpander stream_;
    cgp::MemoryHierarchy mem_;
    std::unique_ptr<cgp::InstrPrefetcher> iengine_;
    std::unique_ptr<cgp::DataPrefetcher> dengine_;
    cgp::Core core_;
};

} // namespace perfbench

#endif // PERFBENCH_MACHINE_HH
