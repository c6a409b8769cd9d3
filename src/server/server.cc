#include "server/server.hh"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hh"

namespace cgp::server
{

DbServer::DbServer(const ServerConfig &config, ServerWiring wiring)
    : config_(config), wiring_(std::move(wiring)),
      shared_(wiring_.mem.l2)
{
    cgp_assert(wiring_.registry != nullptr && wiring_.image != nullptr,
               "incomplete server wiring");
    cgp_assert(config_.cores >= 1, "server needs at least one core");

    const bool single_stream = wiring_.trace != nullptr;
    cgp_assert(single_stream == wiring_.queries.empty(),
               "server needs either a merged trace or a query library");
    if (single_stream) {
        cgp_assert(config_.cores == 1,
                   "single-stream mode is single-core");
    } else {
        if (wiring_.sample.checkpoints.any()) {
            throw std::invalid_argument(
                "warm-state checkpoints need single-stream mode: "
                "scheduler and session state are not serialized");
        }
        sched_ = std::make_unique<AdmissionScheduler>(
            config_, wiring_.queries.size());
    }

    for (unsigned i = 0; i < config_.cores; ++i) {
        auto unit = std::make_unique<CoreUnit>();
        unit->mem = std::make_unique<MemoryHierarchy>(
            wiring_.mem, shared_, i);
        TraceSource *source = nullptr;
        if (single_stream) {
            unit->bufferSource =
                std::make_unique<BufferTraceSource>(*wiring_.trace);
            source = unit->bufferSource.get();
        } else {
            unit->source = std::make_unique<CoreTraceSource>(
                *sched_, wiring_.queries, wiring_.switchStub,
                config_, i);
            source = unit->source.get();
        }
        unit->expander = std::make_unique<InstructionExpander>(
            *wiring_.registry, *wiring_.image, *source,
            wiring_.expand);
        if (wiring_.engines)
            unit->engines = wiring_.engines(*unit->mem, i);
        unit->core = std::make_unique<Core>(
            *unit->expander, *unit->mem,
            unit->engines.iengine.get(), wiring_.core,
            unit->engines.dengine.get());
        units_.push_back(std::move(unit));
    }
}

DbServer::~DbServer() = default;

void
DbServer::run(const sample::CheckpointTarget &checkpoint)
{
    for (auto &u : units_)
        u->core->beginRun();
    if (wiring_.sample.enabled) {
        runSampled(checkpoint);
    } else {
        Cycle cycle = 0;
        while (anyRunning())
            stepAll(cycle);
    }
    finalize();
}

bool
DbServer::anyRunning() const
{
    for (const auto &u : units_) {
        if (!u->core->finished())
            return true;
    }
    return false;
}

void
DbServer::stepAll(Cycle &cycle)
{
    ++cycle;
    if (sched_ != nullptr)
        sched_->wake(cycle);
    // Fixed core order every cycle: scheduler decisions (and thus
    // the whole run) are deterministic.
    for (auto &u : units_) {
        if (u->core->finished())
            continue;
        if (u->source != nullptr)
            u->source->setNow(cycle);
        u->core->stepCycle();
    }
}

void
DbServer::runSampled(const sample::CheckpointTarget &checkpoint)
{
    const sample::SampleConfig &cfg = wiring_.sample;
    sample::WindowEstimator cpiE, l1iE, l1dE, stallE;
    Cycle cycle = 0;
    Cycle totalSkip = 0;
    const Cycle ffCycles = cfg.periodCycles > cfg.windowCycles
        ? cfg.periodCycles - cfg.windowCycles
        : 0;

    const auto allDrained = [this]() {
        for (const auto &u : units_)
            if (!u->core->finished() && !u->core->drained())
                return false;
        return true;
    };

    // Warm the prefix.  In admission mode the sources are dry until
    // the scheduler binds sessions, so this mostly matters in
    // single-stream mode; per-period warming covers the rest.  Only
    // single-stream runs carry checkpoint hooks (the constructor
    // rejects them otherwise), so @p checkpoint is core 0's.
    std::uint64_t replayed = 0;
    for (auto &u : units_) {
        replayed += sample::warmPrefix(*u->core, *u->expander, cfg,
                                       checkpoint, sampledStats_);
    }

    std::vector<std::uint64_t> i0(units_.size(), 0);
    while (anyRunning()) {
        // 1. Global detailed window in lockstep.
        const Cycle winStart = cycle;
        Cycle coreCycles0 = 0;
        std::uint64_t iAcc0 = 0, iMiss0 = 0, dAcc0 = 0, dMiss0 = 0;
        std::uint64_t stall0 = 0;
        for (unsigned i = 0; i < units_.size(); ++i) {
            const CoreUnit &u = *units_[i];
            i0[i] = u.core->committedInstrs();
            coreCycles0 += u.core->cycles();
            iAcc0 += u.mem->l1i().demandAccesses();
            iMiss0 += u.mem->l1i().demandMisses();
            dAcc0 += u.mem->l1d().demandAccesses();
            dMiss0 += u.mem->l1d().demandMisses();
            stall0 += u.core->fetchIcacheStallCycles();
        }

        while (anyRunning() && cycle - winStart < cfg.windowCycles)
            stepAll(cycle);

        const Cycle winCycles = cycle - winStart;
        Cycle coreCycleDelta = 0;
        std::uint64_t winInstrs = 0;
        std::vector<std::uint64_t> coreWinInstrs(units_.size(), 0);
        std::uint64_t iAcc = 0, iMiss = 0, dAcc = 0, dMiss = 0;
        std::uint64_t stall = 0;
        for (unsigned i = 0; i < units_.size(); ++i) {
            const CoreUnit &u = *units_[i];
            coreWinInstrs[i] = u.core->committedInstrs() - i0[i];
            winInstrs += coreWinInstrs[i];
            coreCycleDelta += u.core->cycles();
            iAcc += u.mem->l1i().demandAccesses();
            iMiss += u.mem->l1i().demandMisses();
            dAcc += u.mem->l1d().demandAccesses();
            dMiss += u.mem->l1d().demandMisses();
            stall += u.core->fetchIcacheStallCycles();
        }
        coreCycleDelta -= coreCycles0;
        if (winCycles > 0 && winInstrs > 0) {
            ++sampledStats_.windows;
            // Aggregate CPI: detailed core-cycles over committed
            // instructions across all (still running) cores.
            cpiE.add(static_cast<double>(coreCycleDelta) /
                     static_cast<double>(winInstrs));
            if (iAcc > iAcc0)
                l1iE.add(static_cast<double>(iMiss - iMiss0) /
                         static_cast<double>(iAcc - iAcc0));
            if (dAcc > dAcc0)
                l1dE.add(static_cast<double>(dMiss - dMiss0) /
                         static_cast<double>(dAcc - dAcc0));
            stallE.add(static_cast<double>(stall - stall0) /
                       static_cast<double>(winInstrs));
        }
        if (!anyRunning())
            break;

        // 2. Drain every core so no in-flight instruction straddles
        // the clock jump.
        for (auto &u : units_)
            u->core->suspendFetch(true);
        while (anyRunning() && !allDrained())
            stepAll(cycle);
        for (auto &u : units_)
            u->core->suspendFetch(false);
        if (!anyRunning())
            break;

        // 3. Per-core fast-forward at each core's own window IPC.
        std::uint64_t consumed = 0;
        for (unsigned i = 0; i < units_.size(); ++i) {
            CoreUnit &u = *units_[i];
            if (u.core->finished())
                continue;
            const std::uint64_t budget = ffCycles *
                std::max<std::uint64_t>(coreWinInstrs[i], 1) /
                std::max<Cycle>(winCycles, 1);
            if (budget > 0)
                consumed += u.core->fastForward(
                    budget, cfg.functionalWarming);
        }

        // 4. One shared clock jump keeps the cores in lockstep and
        // lets the scheduler's think timers elapse over the skipped
        // region.  With nothing consumed and an idle window (cores
        // parked on think timers) the idle stretch itself is skipped
        // — there is no state to warm in it.  A single-stream source
        // is never dry, so there it would take a whole window without
        // one commit.
        Cycle skip = 0;
        if (consumed > 0)
            skip = consumed * std::max<Cycle>(winCycles, 1) /
                std::max<std::uint64_t>(winInstrs, 1);
        else if (winInstrs == 0)
            skip = ffCycles;
        if (skip > 0) {
            for (auto &u : units_) {
                if (!u->core->finished())
                    u->core->advanceClock(skip);
            }
            cycle += skip;
            totalSkip += skip;
        }
    }
    sampledStats_.detailedCycles = cycle - totalSkip;
    sampledStats_.warmedInstrs = replayed;
    for (const auto &u : units_) {
        sampledStats_.detailedInstrs += u->core->committedInstrs();
        sampledStats_.warmedInstrs += u->core->warmedInstrs();
    }
    sampledStats_.skippedCycles = totalSkip;
    sampledStats_.cpi = cpiE.estimate();
    sampledStats_.l1iMissRate = l1iE.estimate();
    sampledStats_.l1dMissRate = l1dE.estimate();
    sampledStats_.fetchStallPerInstr = stallE.estimate();
}

void
DbServer::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    // Per-core state first (arbiter, L1s), then the shared L2 once —
    // the same order the owning single-core hierarchy uses.
    for (auto &u : units_)
        u->mem->finalize();
    shared_.finalize();
}

Cycle
DbServer::cycles() const
{
    Cycle c = 0;
    for (const auto &u : units_)
        c = std::max(c, u->core->cycles());
    return c;
}

ServerStats
DbServer::stats() const
{
    ServerStats s;
    s.cores = units_.size();
    s.sessions = sched_ == nullptr ? 1 : config_.sessions;
    s.cycles = cycles();
    s.portWaitCycles = shared_.port().waitCycles();

    if (sched_ != nullptr) {
        s.queriesServed = sched_->queriesServed();
        std::vector<std::uint64_t> lat = sched_->latencies();
        std::sort(lat.begin(), lat.end());
        s.latencyP50 = percentile(lat, 50.0);
        s.latencyP95 = percentile(lat, 95.0);
        s.latencyP99 = percentile(lat, 99.0);
    }

    for (unsigned i = 0; i < units_.size(); ++i) {
        const CoreUnit &u = *units_[i];
        ServerCoreStats c;
        c.cycles = u.core->cycles();
        c.instrs = u.core->committedInstrs();
        c.idleCycles = u.core->idleCycles();
        c.icacheAccesses = u.mem->l1i().demandAccesses();
        c.icacheMisses = u.mem->l1i().demandMisses();
        c.dcacheAccesses = u.mem->l1d().demandAccesses();
        c.dcacheMisses = u.mem->l1d().demandMisses();
        c.busLines = shared_.port().requestsBy(i);
        c.portWaitCycles = shared_.port().waitCyclesBy(i);
        if (u.source != nullptr) {
            c.queries = u.source->queriesCompleted();
            c.binds = u.source->binds();
        }
        s.binds += c.binds;
        s.perCore.push_back(c);
    }
    return s;
}

} // namespace cgp::server
