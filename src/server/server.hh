/**
 * @file
 * DbServer: the N-core database server model (DESIGN.md §10).
 *
 * Topology: N cores, each owning a private L1-I/L1-D, its own
 * instruction- and data-prefetch engines and its own PrefetchArbiter,
 * all in front of one SharedL2 behind the shared FIFO port (per-core
 * request attribution gives the cross-core contention accounting).
 * In front, an AdmissionScheduler feeds closed-loop client sessions
 * (exponential think times, Zipf query mix over the workload's query
 * library) to the cores; each core's CoreTraceSource streams its
 * bound session's events into that core's private InstructionExpander
 * and Core, which the server steps in lockstep, one global cycle at
 * a time, in fixed core order (determinism).
 *
 * DbServer is the one place a simulated machine is assembled and
 * stepped.  It runs in one of two modes, chosen by its input: a
 * pre-merged trace (single-stream mode: one core replays it, no
 * scheduler — the paper's single-core machine) or a query library
 * (admission mode: sessions, scheduler, N cores).
 */

#ifndef CGP_SERVER_SERVER_HH
#define CGP_SERVER_SERVER_HH

#include <functional>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "dprefetch/dprefetcher.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "sample/checkpoint.hh"
#include "sample/config.hh"
#include "sample/estimator.hh"
#include "server/config.hh"
#include "server/scheduler.hh"
#include "server/source.hh"
#include "server/stats.hh"
#include "trace/expand.hh"
#include "trace/source.hh"

namespace cgp::server
{

/** Per-core prefetch engines built by the harness (the server does
 *  not know about SimConfig / fail-soft policy). */
struct EnginePair
{
    std::unique_ptr<InstrPrefetcher> iengine;
    std::unique_ptr<DataPrefetcher> dengine;
};

/** Called once per core, after that core's hierarchy exists. */
using EngineFactory =
    std::function<EnginePair(MemoryHierarchy &mem, unsigned coreId)>;

struct ServerWiring
{
    const FunctionRegistry *registry = nullptr;
    const CodeImage *image = nullptr;
    ExpanderConfig expand;
    /** Per-core L1 + arbiter geometry; `.l2` builds the SharedL2. */
    HierarchyConfig mem;
    CoreConfig core;
    /** May be empty: cores run without prefetch engines. */
    EngineFactory engines;

    /**
     * SMARTS-style sampling under the lockstep loop (DESIGN.md
     * §11.2): global detailed windows, an all-core drain, per-core
     * functional fast-forward and one shared clock jump so the cores
     * stay in lockstep.  Warm-state checkpoint hooks are accepted in
     * single-stream mode only (scheduler and session state are not
     * serialized); admission mode rejects them.
     */
    sample::SampleConfig sample;

    /** Single-stream mode: the pre-merged trace the one core
     *  replays. */
    const TraceBuffer *trace = nullptr;
    /** Admission mode: the query library sessions draw from. */
    std::vector<const TraceBuffer *> queries;
    /** Scheduler stub replayed at each bind (may be null). */
    const TraceBuffer *switchStub = nullptr;
};

class DbServer
{
  public:
    DbServer(const ServerConfig &config, ServerWiring wiring);
    ~DbServer();

    /**
     * Run to completion (throws TimeoutError / CancelledError via
     * the per-core watchdogs) and finalize all memory state.
     * @param checkpoint What a sampled single-stream run's warm
     *        prefix restores from and saves to the checkpoint hooks
     *        (core 0's structures and the key's identity); unused
     *        without hooks.
     */
    void run(const sample::CheckpointTarget &checkpoint = {});

    /** Global cycle count (max over cores). */
    Cycle cycles() const;

    unsigned
    numCores() const
    {
        return static_cast<unsigned>(units_.size());
    }
    Core &coreAt(unsigned i) { return *units_[i]->core; }
    MemoryHierarchy &memAt(unsigned i) { return *units_[i]->mem; }
    InstructionExpander &expanderAt(unsigned i)
    {
        return *units_[i]->expander;
    }
    InstrPrefetcher *iengineAt(unsigned i)
    {
        return units_[i]->engines.iengine.get();
    }
    DataPrefetcher *dengineAt(unsigned i)
    {
        return units_[i]->engines.dengine.get();
    }
    /** Null in single-stream mode. */
    const CoreTraceSource *
    sourceAt(unsigned i) const
    {
        return units_[i]->source.get();
    }

    SharedL2 &sharedL2() { return shared_; }
    /** Null in single-stream mode. */
    const AdmissionScheduler *scheduler() const { return sched_.get(); }

    /** Aggregate + per-core queueing statistics (valid after run). */
    ServerStats stats() const;

    /** Sampling estimators (valid after run when wiring.sample is
     *  enabled; zeroed otherwise). */
    const sample::SampledStats &sampledStats() const
    {
        return sampledStats_;
    }

  private:
    struct CoreUnit
    {
        std::unique_ptr<CoreTraceSource> source;
        std::unique_ptr<BufferTraceSource> bufferSource;
        std::unique_ptr<MemoryHierarchy> mem;
        std::unique_ptr<InstructionExpander> expander;
        EnginePair engines;
        std::unique_ptr<Core> core;
    };

    void finalize();
    bool anyRunning() const;
    /** One lockstep cycle: wake the scheduler, step every running
     *  core in index order. */
    void stepAll(Cycle &cycle);

    /** The sampled lockstep loop (run() dispatches here when the
     *  wiring enables sampling; run() finalizes afterwards). */
    void runSampled(const sample::CheckpointTarget &checkpoint);

    ServerConfig config_;
    ServerWiring wiring_;
    SharedL2 shared_;
    std::unique_ptr<AdmissionScheduler> sched_;
    std::vector<std::unique_ptr<CoreUnit>> units_;
    sample::SampledStats sampledStats_;
    bool finalized_ = false;
};

} // namespace cgp::server

#endif // CGP_SERVER_SERVER_HH
