#include "harness/simulator.hh"

#include <memory>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "dprefetch/factory.hh"
#include "dprefetch/failsoft.hh"
#include "mem/hierarchy.hh"
#include "mem/pfarbiter.hh"
#include "prefetch/cgp.hh"
#include "prefetch/failsoft.hh"
#include "prefetch/nextline.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/software_cgp.hh"
#include "sample/checkpoint.hh"
#include "server/server.hh"
#include "trace/expand.hh"
#include "util/logging.hh"

namespace cgp
{

namespace
{

/**
 * One core's prefetch engines plus the observation pointers the
 * result collection needs.  The owning pointers move into the core
 * wiring; the raw pointers stay valid for the life of the engines.
 */
struct EngineSet
{
    std::unique_ptr<InstrPrefetcher> iengine;
    std::unique_ptr<DataPrefetcher> dengine;
    FailSoftPrefetcher *failsoft = nullptr;
    FailSoftDataPrefetcher *dfailsoft = nullptr;
    Cghc *cghc = nullptr;
    bool ctorFailed = false;
    std::string ctorReason;
};

/**
 * Build the configured I- and D-side engines against @p mem's L1s.
 * Prefetching is an optimisation: a prefetcher that faults — at
 * construction or at any hook mid-run — must not take down the
 * simulation.  Construction failures fall back to no-prefetch here;
 * mid-run faults are absorbed by the FailSoft wrappers.
 */
EngineSet
buildEngines(MemoryHierarchy &mem, const SimConfig &config,
             const FunctionRegistry &registry, const CodeImage &image,
             const ExecutionProfile &profile)
{
    EngineSet set;

    std::unique_ptr<InstrPrefetcher> inner;
    try {
        switch (config.prefetch) {
          case PrefetchKind::None:
            break;
          case PrefetchKind::NextNLine:
            inner = std::make_unique<NextNLinePrefetcher>(
                mem.l1i(), config.depth);
            break;
          case PrefetchKind::RunAheadNL:
            inner = std::make_unique<RunAheadNLPrefetcher>(
                mem.l1i(), config.depth, config.runaheadSkip);
            break;
          case PrefetchKind::Cgp: {
            auto cgp = std::make_unique<CgpPrefetcher>(
                mem.l1i(), config.cghc, config.depth);
            set.cghc = &cgp->cghc();
            inner = std::move(cgp);
            break;
          }
          case PrefetchKind::SoftwareCgp:
            // The "compiler" consumes the same profile feedback OM
            // does.
            inner = std::make_unique<SoftwareCgpPrefetcher>(
                mem.l1i(), registry, image, profile, config.depth);
            break;
        }
    } catch (const std::exception &e) {
        set.ctorFailed = true;
        set.ctorReason = e.what();
        set.cghc = nullptr;
        inner.reset();
        cgp_error("prefetcher construction failed (", set.ctorReason,
                  "); running without prefetch");
    }

    if (inner != nullptr) {
        auto fs =
            std::make_unique<FailSoftPrefetcher>(std::move(inner));
        set.failsoft = fs.get();
        set.iengine = std::move(fs);
    }

    // The data-side engine gets the same fail-soft treatment: a
    // construction failure falls back to no data prefetch, a mid-run
    // fault disables it for the rest of the run.
    std::unique_ptr<DataPrefetcher> dinner;
    try {
        dinner = makeDataPrefetcher(mem.l1d(), config.dprefetch);
    } catch (const std::exception &e) {
        if (!set.ctorFailed) {
            set.ctorFailed = true;
            set.ctorReason = e.what();
        }
        dinner.reset();
        cgp_error("data prefetcher construction failed (", e.what(),
                  "); running without data prefetch");
    }
    if (dinner != nullptr) {
        auto fs = std::make_unique<FailSoftDataPrefetcher>(
            std::move(dinner));
        set.dfailsoft = fs.get();
        set.dengine = std::move(fs);
    }
    return set;
}

/** One prefetch source's classification counters in @p cache. */
PrefetchBreakdown
classified(const Cache &cache, AccessSource src)
{
    return {.issued = cache.prefetchesIssued(src),
            .prefHits = cache.prefHits(src),
            .delayedHits = cache.delayedHits(src),
            .useless = cache.useless(src)};
}

/** Add one core's L1 counters into the (aggregate) result. */
void
accumulateCacheCounters(SimResult &r, const Cache &l1i,
                        const Cache &l1d)
{
    r.icacheAccesses += l1i.demandAccesses();
    r.icacheMisses += l1i.demandMisses();
    r.dcacheAccesses += l1d.demandAccesses();
    r.dcacheMisses += l1d.demandMisses();
    r.nl += classified(l1i, AccessSource::PrefetchNL);
    r.cghc += classified(l1i, AccessSource::PrefetchCGHC);
    r.dpf += classified(l1d, AccessSource::DataPrefetch);
    r.squashedPrefetches += l1i.squashedPrefetches();
    r.dSquashedPrefetches += l1d.squashedPrefetches();
}

/**
 * Wire the checkpointable structures of one core into a
 * CheckpointParts.  The D-side engines hide behind the fail-soft
 * wrapper (and, for the Combined stack, the multi fan-out), so they
 * are recovered by type.
 */
sample::CheckpointParts
makeCheckpointParts(MemoryHierarchy &mem, Core &core,
                    EngineSet &engines)
{
    sample::CheckpointParts p;
    p.l1i = &mem.l1i();
    p.l1d = &mem.l1d();
    p.l2 = &mem.l2();
    p.branch = &core.branchUnit();
    p.cghc = engines.cghc;
    p.core = &core;
    if (engines.dfailsoft != nullptr) {
        const auto bind = [&p](DataPrefetcher *e) {
            if (auto *s = dynamic_cast<StrideDataPrefetcher *>(e))
                p.stride = s;
            else if (auto *c =
                         dynamic_cast<CorrelationDataPrefetcher *>(e))
                p.correlation = c;
            else if (auto *h =
                         dynamic_cast<SemanticDataPrefetcher *>(e))
                p.semantic = h;
        };
        DataPrefetcher *inner = engines.dfailsoft->inner();
        if (auto *multi = dynamic_cast<MultiDataPrefetcher *>(inner)) {
            for (const auto &part : multi->parts())
                bind(part.get());
        } else {
            bind(inner);
        }
    }
    return p;
}

/** Add one core's arbiter counters (no-op without an arbiter). */
void
accumulateArbiterCounters(SimResult &r, const PrefetchArbiter *arb)
{
    if (arb == nullptr)
        return;
    const auto counts = [arb](AccessSource src) {
        return ArbiterBreakdown{
            .issued = arb->issued(src),
            .deferred = arb->deferred(src),
            .dropped = arb->dropped(src),
            .duplicateMerged = arb->duplicateMerged(src)};
    };
    r.arbNl += counts(AccessSource::PrefetchNL);
    r.arbCghc += counts(AccessSource::PrefetchCGHC);
    r.arbDpf += counts(AccessSource::DataPrefetch);
}

/** Fold one core's engine health into the degraded flag/reason. */
void
accumulateDegraded(SimResult &r, const EngineSet &engines)
{
    if (r.prefetchDegraded)
        return;
    if (engines.ctorFailed) {
        r.prefetchDegraded = true;
        r.degradedReason = engines.ctorReason;
    } else if (engines.failsoft != nullptr &&
               engines.failsoft->degraded()) {
        r.prefetchDegraded = true;
        r.degradedReason = engines.failsoft->reason();
    } else if (engines.dfailsoft != nullptr &&
               engines.dfailsoft->degraded()) {
        r.prefetchDegraded = true;
        r.degradedReason = engines.dfailsoft->reason();
    }
}

} // anonymous namespace

SimResult
runSimulation(const Workload &workload, const SimConfig &config)
{
    cgp_assert(workload.registry != nullptr && workload.trace != nullptr,
               "incomplete workload");

    // 1. Bind the trace to the requested binary layout.
    LayoutBuilder builder(*workload.registry);
    ExecutionProfile empty_profile;
    const ExecutionProfile &profile = workload.omProfile
        ? *workload.omProfile
        : empty_profile;
    const CodeImage image = builder.build(config.layout, profile);

    // 2. Assemble the machine: one core replaying the pre-merged
    // trace, or (config.server.enabled) N cores serving the query
    // library through the admission scheduler.
    server::ServerWiring wiring;
    wiring.registry = workload.registry.get();
    wiring.image = &image;
    wiring.expand.instrScale =
        config.layout == LayoutKind::PettisHansen
        ? config.omInstrScale
        : 1.0;
    wiring.mem = config.mem;
    wiring.core = config.core;
    wiring.core.perfectICache = config.perfectICache;
    wiring.sample = config.sample;

    server::ServerConfig server_cfg;
    if (!config.server.enabled) {
        wiring.trace = workload.trace.get();
    } else {
        server_cfg = config.server;
        if (workload.queryLibrary != nullptr &&
            !workload.queryLibrary->empty()) {
            for (const auto &q : *workload.queryLibrary)
                wiring.queries.push_back(&q);
            wiring.switchStub = workload.switchStub.get();
        } else {
            // SPEC proxies have no query structure: the whole trace
            // is a one-query library.
            wiring.queries.push_back(workload.trace.get());
        }
    }

    std::vector<EngineSet> engines(server_cfg.cores);
    wiring.engines = [&](MemoryHierarchy &mem, unsigned coreId) {
        EngineSet set = buildEngines(mem, config, *workload.registry,
                                     image, profile);
        server::EnginePair pair;
        pair.iengine = std::move(set.iengine);
        pair.dengine = std::move(set.dengine);
        engines[coreId] = std::move(set);
        return pair;
    };

    server::DbServer srv(server_cfg, std::move(wiring));

    // 3. Run.  A single-stream run's warm prefix may come from (and
    // go to) the checkpoint store, keyed by workload and label.  The
    // label leaves out the CGHC geometry, which the warmed state
    // depends on, so CGP configurations add it to the key.
    sample::CheckpointTarget checkpoint;
    if (!config.server.enabled) {
        checkpoint.parts =
            makeCheckpointParts(srv.memAt(0), srv.coreAt(0), engines[0]);
        checkpoint.workload = workload.name;
        checkpoint.configLabel = config.describe();
        if (config.prefetch == PrefetchKind::Cgp)
            checkpoint.configLabel += "+" + config.cghc.describe();
    }
    srv.run(checkpoint);

    // 4. Collect.  The scalar counters aggregate across cores; a
    // server run adds the per-core breakdown and latency summary.
    SimResult r;
    r.workload = workload.name;
    r.config = config.describe();
    r.cycles = srv.cycles();

    std::uint64_t emitted = 0;
    std::uint64_t calls = 0;
    for (unsigned i = 0; i < srv.numCores(); ++i) {
        r.instrs += srv.coreAt(i).committedInstrs();
        r.branchMispredicts +=
            srv.coreAt(i).branchUnit().mispredicts();
        accumulateCacheCounters(r, srv.memAt(i).l1i(),
                                srv.memAt(i).l1d());
        accumulateArbiterCounters(r, srv.memAt(i).arbiter());
        accumulateDegraded(r, engines[i]);
        if (engines[i].cghc != nullptr) {
            r.cghcAccesses += engines[i].cghc->accesses();
            r.cghcHits += engines[i].cghc->hits();
        }
        emitted += srv.expanderAt(i).emittedInstrs();
        calls += srv.expanderAt(i).emittedCalls();
    }
    r.l2Misses = srv.sharedL2().cache().demandMisses();
    r.busLines = srv.sharedL2().port().requests();
    r.instrsPerCall = calls == 0
        ? 0.0
        : static_cast<double>(emitted) / static_cast<double>(calls);

    if (config.server.enabled) {
        r.serverEnabled = true;
        r.server = srv.stats();
    }
    if (config.sample.enabled) {
        // Warmed instructions executed (functionally); cycles()
        // already includes the IPC-scaled clock jumps, so the pair
        // remains an end-to-end CPI estimate.
        r.sampledEnabled = true;
        r.sampled = srv.sampledStats();
        r.instrs += r.sampled.warmedInstrs;
    }
    return r;
}

} // namespace cgp
