#include "machine.hh"

#include <stdexcept>

#include "dprefetch/factory.hh"
#include "prefetch/cgp.hh"
#include "prefetch/nextline.hh"

namespace perfbench
{

using namespace cgp;

namespace
{

std::unique_ptr<InstrPrefetcher>
makeIPrefetcher(MemoryHierarchy &mem, const SimConfig &config)
{
    switch (config.prefetch) {
      case PrefetchKind::None:
        return nullptr;
      case PrefetchKind::NextNLine:
        return std::make_unique<NextNLinePrefetcher>(mem.l1i(),
                                                     config.depth);
      case PrefetchKind::Cgp:
        return std::make_unique<CgpPrefetcher>(mem.l1i(), config.cghc,
                                               config.depth);
      default:
        throw std::invalid_argument(
            std::string("probe machine does not build prefetcher ") +
            prefetchKindName(config.prefetch));
    }
}

CoreConfig
coreConfig(const SimConfig &config)
{
    CoreConfig c = config.core;
    c.perfectICache = config.perfectICache;
    return c;
}

const ExecutionProfile &
profileOf(const Workload &workload)
{
    static const ExecutionProfile empty;
    return workload.omProfile ? *workload.omProfile : empty;
}

} // anonymous namespace

ExpanderConfig
expanderConfig(const SimConfig &config)
{
    ExpanderConfig e;
    e.instrScale = config.layout == LayoutKind::PettisHansen
        ? config.omInstrScale
        : 1.0;
    return e;
}

CodeImage
bindLayout(const Workload &workload, const SimConfig &config)
{
    return LayoutBuilder(*workload.registry)
        .build(config.layout, profileOf(workload));
}

DrainCount
drainExpander(const Workload &workload, const CodeImage &image,
              const SimConfig &config)
{
    InstructionExpander stream(*workload.registry, image,
                               *workload.trace, expanderConfig(config));
    DynInst inst;
    while (stream.next(inst)) {
    }
    return {stream.emittedInstrs(), stream.emittedCalls()};
}

Machine::Machine(const Workload &workload, const CodeImage &image,
                 const SimConfig &config)
    : stream_(*workload.registry, image, *workload.trace,
              expanderConfig(config)),
      mem_(config.mem),
      iengine_(makeIPrefetcher(mem_, config)),
      dengine_(makeDataPrefetcher(mem_.l1d(), config.dprefetch)),
      core_(stream_, mem_, iengine_.get(), coreConfig(config),
            dengine_.get())
{
}

} // namespace perfbench
