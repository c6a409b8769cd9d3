/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulator's hot
 * components: CGHC accesses, cache lookups, branch prediction, trace
 * expansion throughput, and the detailed core and its functional
 * fast-forward over a fixed trace.  These bound the simulator's own
 * speed, not the modeled machine's.
 */

#include <benchmark/benchmark.h>

#include "branch/predictor.hh"
#include "codegen/layout.hh"
#include "codegen/registry.hh"
#include "cpu/core.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cghc.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"

#include <sstream>

#include "db/btree.hh"
#include "db/heapfile.hh"
#include "trace/interleave.hh"
#include "trace/serialize.hh"

namespace
{

void
BM_CghcCallAccess(benchmark::State &state)
{
    using namespace cgp;
    Cghc cghc(CghcConfig::twoLevel2K32K());
    Rng rng(42);
    std::vector<Addr> funcs;
    for (int i = 0; i < 256; ++i)
        funcs.push_back(0x400000 + static_cast<Addr>(i) * 352);
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr callee = funcs[i % funcs.size()];
        const Addr caller = funcs[(i * 7 + 3) % funcs.size()];
        benchmark::DoNotOptimize(cghc.callPrefetchAccess(callee));
        cghc.callUpdateAccess(caller, callee);
        ++i;
    }
}
BENCHMARK(BM_CghcCallAccess);

void
BM_CacheAccess(benchmark::State &state)
{
    using namespace cgp;
    CacheConfig cfg{"l1i", 32 * 1024, 2, 32, 1};
    Cache cache(cfg, nullptr, nullptr);
    Rng rng(7);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr addr = 0x400000 + (rng.next() & 0xffff);
        benchmark::DoNotOptimize(
            cache.access(addr, ++now, AccessSource::DemandFetch,
                         false));
        cache.tick(now);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    using namespace cgp;
    BranchUnit bu(BranchPredictorConfig{});
    Rng rng(3);
    for (auto _ : state) {
        const Addr pc = 0x400000 + ((rng.next() & 0xff) << 2);
        const bool taken = rng.nextBool(0.6);
        benchmark::DoNotOptimize(
            bu.predictConditional(pc, taken, pc + 64));
    }
}
BENCHMARK(BM_BranchPredict);

/** A fixed two-function program, its trace and its O5 layout: the
 *  shared input of the expansion and core benchmarks. */
struct SmokeProgram
{
    cgp::FunctionRegistry reg;
    cgp::TraceBuffer trace;
    cgp::CodeImage image;

    SmokeProgram()
    {
        using namespace cgp;
        const FunctionId a = reg.declare("a", FunctionTraits::medium());
        const FunctionId b = reg.declare("b", FunctionTraits::small());
        TraceRecorder rec(trace);
        rec.call(a);
        for (int i = 0; i < 1000; ++i) {
            rec.work(30);
            rec.call(b);
            rec.work(20);
            rec.ret();
            rec.branch(i % 3 == 0);
        }
        rec.ret();
        image = LayoutBuilder(reg).buildOriginal();
    }
};

void
BM_TraceExpansion(benchmark::State &state)
{
    using namespace cgp;
    const SmokeProgram p;
    for (auto _ : state) {
        // Drain by reference, the way the core consumes the stream.
        InstructionExpander ex(p.reg, p.image, p.trace);
        std::uint64_t n = 0;
        while (ex.peek() != nullptr) {
            ex.pop();
            ++n;
        }
        benchmark::DoNotOptimize(n);
        state.SetItemsProcessed(
            state.items_processed() + static_cast<std::int64_t>(n));
    }
}
BENCHMARK(BM_TraceExpansion);

/** The detailed core alone (Table 1 pipeline, no prefetcher) over
 *  the same program: fetch, dispatch, issue, commit and the memory
 *  hierarchy tick, from cold caches each iteration. */
void
BM_CoreDetailed(benchmark::State &state)
{
    using namespace cgp;
    const SmokeProgram p;
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        InstructionExpander ex(p.reg, p.image, p.trace);
        MemoryHierarchy mem;
        Core core(ex, mem, nullptr, CoreConfig{});
        core.run();
        instrs += core.committedInstrs();
        benchmark::DoNotOptimize(core.cycles());
    }
    state.counters["instrs"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreDetailed)->Unit(benchmark::kMillisecond);

/** Functional fast-forward (the sampled-simulation warming path) over
 *  the same program: warm_state on, no prefetcher, cold caches each
 *  iteration. */
void
BM_FastForward(benchmark::State &state)
{
    using namespace cgp;
    const SmokeProgram p;
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        InstructionExpander ex(p.reg, p.image, p.trace);
        MemoryHierarchy mem;
        Core core(ex, mem, nullptr, CoreConfig{});
        instrs += core.fastForward(~std::uint64_t{0}, true);
        benchmark::DoNotOptimize(core.warmedInstrs());
    }
    state.counters["instrs"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FastForward)->Unit(benchmark::kMicrosecond);

void
BM_BTreeInsert(benchmark::State &state)
{
    using namespace cgp;
    using namespace cgp::db;
    FunctionRegistry reg;
    TraceBuffer buf;
    DbContext ctx(reg, buf);
    Volume vol(ctx);
    BufferPool pool(ctx, vol, 1024);
    LockManager locks(ctx);
    BTree tree(ctx, pool, vol, locks);
    std::int32_t k = 0;
    for (auto _ : state) {
        tree.insert(1, k, Rid{static_cast<PageId>(k), 0});
        ++k;
        if (buf.size() > 4'000'000) {
            state.PauseTiming();
            buf.clear();
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_BTreeInsert);

void
BM_HeapFileScan(benchmark::State &state)
{
    using namespace cgp;
    using namespace cgp::db;
    FunctionRegistry reg;
    TraceBuffer buf;
    DbContext ctx(reg, buf);
    Volume vol(ctx);
    BufferPool pool(ctx, vol, 1024);
    LockManager locks(ctx);
    WriteAheadLog log(ctx);
    Schema schema({{"k", ColumnType::Int32, 4},
                   {"pad", ColumnType::Char, 60}});
    HeapFile file(ctx, pool, vol, locks, log, &schema);
    for (int i = 0; i < 2000; ++i) {
        Tuple t(&schema);
        t.setInt(0, i);
        file.createRec(1, t);
    }
    buf.clear();
    for (auto _ : state) {
        HeapFile::Scan scan(file, 1);
        Tuple t;
        std::uint64_t rows = 0;
        while (scan.next(t))
            ++rows;
        scan.close();
        benchmark::DoNotOptimize(rows);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(rows));
        buf.clear();
    }
}
BENCHMARK(BM_HeapFileScan);

void
BM_TraceSerializeRoundTrip(benchmark::State &state)
{
    using namespace cgp;
    TraceBuffer trace;
    TraceRecorder rec(trace);
    rec.call(1);
    for (int i = 0; i < 50'000; ++i) {
        rec.work(20);
        rec.branch(i % 2 == 0);
    }
    rec.ret();
    for (auto _ : state) {
        std::stringstream ss;
        saveTrace(trace, ss);
        TraceBuffer loaded;
        loadTrace(loaded, ss);
        benchmark::DoNotOptimize(loaded.size());
    }
}
BENCHMARK(BM_TraceSerializeRoundTrip);

void
BM_Interleave(benchmark::State &state)
{
    using namespace cgp;
    std::vector<TraceBuffer> threads(8);
    for (auto &t : threads) {
        TraceRecorder rec(t);
        rec.call(1);
        for (int i = 0; i < 20'000; ++i)
            rec.work(30);
        rec.ret();
    }
    std::vector<const TraceBuffer *> ptrs;
    for (auto &t : threads)
        ptrs.push_back(&t);
    // A scheduler stub after every switch, as the workload factory
    // merges.
    TraceBuffer stub;
    {
        TraceRecorder rec(stub);
        TraceScope s(rec, 2);
        s.work(60);
        s.branch(true);
    }
    for (auto _ : state) {
        const TraceBuffer merged =
            interleaveTraces(ptrs, 20'000, &stub);
        benchmark::DoNotOptimize(merged.size());
    }
}
BENCHMARK(BM_Interleave);

} // namespace

BENCHMARK_MAIN();
