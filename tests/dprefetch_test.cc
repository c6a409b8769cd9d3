/**
 * @file
 * Tests for the data-side prefetching subsystem (src/dprefetch):
 * stride confidence promotion/demotion, correlation-table recording,
 * eviction bounds and depth/degree limits, semantic-hint coverage and
 * dedup, hint transport through the trace/expander, D-side
 * useful/late/polluting classification, and the fail-soft wrapper.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "codegen/layout.hh"
#include "dprefetch/correlation.hh"
#include "dprefetch/factory.hh"
#include "dprefetch/failsoft.hh"
#include "dprefetch/semantic.hh"
#include "dprefetch/stride.hh"
#include "mem/hierarchy.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

constexpr auto kLoad = AccessSource::DemandLoad;
constexpr auto kDPF = AccessSource::DataPrefetch;

/** Standalone L1-D stand-in, memory-backed. */
CacheConfig
dcacheConfig(std::uint32_t size_bytes = 32 * 1024)
{
    CacheConfig c;
    c.name = "l1d";
    c.sizeBytes = size_bytes;
    c.assoc = 2;
    c.lineBytes = 32;
    c.hitLatency = 1;
    return c;
}

// ---------------------------------------------------------------
// Stride prefetcher
// ---------------------------------------------------------------

TEST(Stride, PromotesAfterRepeatedStrideAndPrefetchesAhead)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideConfig cfg;
    cfg.degree = 2;
    cfg.promoteAt = 2;
    StrideDataPrefetcher pf(cache, cfg);

    const Addr pc = 0x400100;
    pf.onAccess(pc, 0x1000, false, true, 1); // allocate
    EXPECT_EQ(pf.confidenceFor(pc), 0u);
    pf.onAccess(pc, 0x1040, false, true, 2); // train stride
    EXPECT_EQ(pf.confidenceFor(pc), 0u);
    EXPECT_EQ(pf.prefetchesRequested(), 0u);
    pf.onAccess(pc, 0x1080, false, true, 3); // stride repeats
    EXPECT_EQ(pf.confidenceFor(pc), 1u);
    EXPECT_EQ(pf.prefetchesRequested(), 0u); // below promoteAt

    pf.onAccess(pc, 0x10C0, false, true, 4); // promoted
    EXPECT_EQ(pf.confidenceFor(pc), 2u);
    // Degree 2, stride 0x40 > line size: two distinct target lines.
    EXPECT_EQ(pf.prefetchesRequested(), 2u);
    EXPECT_EQ(cache.prefetchesIssued(kDPF), 2u);
}

TEST(Stride, StrayAccessDemotesWithoutRetraining)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideConfig cfg;
    cfg.maxConfidence = 3;
    StrideDataPrefetcher pf(cache, cfg);

    const Addr pc = 0x400200;
    Addr a = 0x2000;
    for (int i = 0; i < 6; ++i, a += 0x40)
        pf.onAccess(pc, a, false, false, i + 1);
    EXPECT_EQ(pf.confidenceFor(pc), cfg.maxConfidence);

    // One stray access: confidence drops, the stride survives...
    pf.onAccess(pc, 0x9000, false, false, 10);
    EXPECT_EQ(pf.confidenceFor(pc), cfg.maxConfidence - 1);
    // ...so the stream re-promotes on the very next matching delta.
    pf.onAccess(pc, 0x9040, false, false, 11);
    EXPECT_EQ(pf.confidenceFor(pc), cfg.maxConfidence);
}

TEST(Stride, RetrainsStrideOnlyAtZeroConfidence)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideDataPrefetcher pf(cache);

    const Addr pc = 0x400300;
    pf.onAccess(pc, 0x1000, false, false, 1);
    pf.onAccess(pc, 0x1010, false, false, 2); // stride := 0x10
    pf.onAccess(pc, 0x1030, false, false, 3); // conf 0 -> stride := 0x20
    pf.onAccess(pc, 0x1050, false, false, 4); // matches new stride
    EXPECT_EQ(pf.confidenceFor(pc), 1u);
}

TEST(Stride, TagConflictReallocatesSlot)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    StrideConfig cfg;
    cfg.tableEntries = 16;
    StrideDataPrefetcher pf(cache, cfg);

    const Addr pc_a = 0x400400;
    const Addr pc_b = pc_a + 4 * cfg.tableEntries; // same slot
    Addr a = 0x3000;
    for (int i = 0; i < 5; ++i, a += 0x40)
        pf.onAccess(pc_a, a, false, false, i + 1);
    EXPECT_GT(pf.confidenceFor(pc_a), 0u);

    pf.onAccess(pc_b, 0x8000, false, false, 10);
    EXPECT_EQ(pf.confidenceFor(pc_a), 0u); // slot taken over
    EXPECT_EQ(pf.confidenceFor(pc_b), 0u); // fresh allocation
}

// ---------------------------------------------------------------
// Miss-correlation prefetcher
// ---------------------------------------------------------------

TEST(Correlation, RecordsSuccessorsInMruOrderAndPrefetchesThem)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationDataPrefetcher pf(cache);

    const Addr A = 0x1000, B = 0x2000, C = 0x3000;
    pf.onMiss(0, A, 1);
    pf.onMiss(0, B, 2); // records A -> B
    EXPECT_EQ(pf.successorsOf(A), std::vector<Addr>{B});

    pf.onMiss(0, A, 3); // records B -> A; prefetches succ(A) = {B}
    EXPECT_GE(pf.prefetchesRequested(), 1u);
    EXPECT_EQ(cache.prefetchesIssued(kDPF), pf.prefetchesRequested());

    pf.onMiss(0, C, 4); // records A -> C
    pf.onMiss(0, A, 5); // records C -> A
    EXPECT_EQ(pf.successorsOf(A), (std::vector<Addr>{C, B}));
}

TEST(Correlation, SuccessorListBoundedMruFirst)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationConfig cfg;
    cfg.successors = 2;
    CorrelationDataPrefetcher pf(cache, cfg);

    const Addr A = 0x1000, B = 0x2000, C = 0x3000, D = 0x4000;
    for (Addr succ : {B, C, D}) {
        pf.onMiss(0, A, 1);
        pf.onMiss(0, succ, 2);
    }
    // B fell off the end: only the two most recent remain.
    EXPECT_EQ(pf.successorsOf(A), (std::vector<Addr>{D, C}));
}

TEST(Correlation, TableBoundedWithLruEviction)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationConfig cfg;
    cfg.entries = 4;
    cfg.assoc = 2;
    CorrelationDataPrefetcher pf(cache, cfg);

    for (int i = 0; i < 40; ++i)
        pf.onMiss(0, 0x10000 + static_cast<Addr>(i) * 0x1000, i + 1);
    EXPECT_LE(pf.entryCount(), 4u);
    EXPECT_GT(pf.evictions(), 0u);
}

TEST(Correlation, DepthChainsThroughMostRecentSuccessor)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationConfig cfg;
    cfg.degree = 1;
    cfg.depth = 2;
    CorrelationDataPrefetcher pf(cache, cfg);

    const Addr A = 0x1000, B = 0x2000, C = 0x3000;
    pf.onMiss(0, A, 1);
    pf.onMiss(0, B, 2); // A -> B
    pf.onMiss(0, C, 3); // B -> C
    EXPECT_EQ(pf.prefetchesRequested(), 0u);

    // Miss on A again: depth 2 walks A -> B (prefetch B), then
    // chains through B -> C (prefetch C).  Degree 1 caps each hop.
    pf.onMiss(0, A, 4);
    EXPECT_EQ(pf.prefetchesRequested(), 2u);
}

TEST(Correlation, DegreeCapsPrefetchesPerLookup)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationConfig cfg;
    cfg.degree = 1;
    cfg.depth = 1;
    CorrelationDataPrefetcher pf(cache, cfg);

    const Addr A = 0x1000;
    for (Addr succ : {0x2000ull, 0x3000ull, 0x4000ull}) {
        pf.onMiss(0, A, 1);
        pf.onMiss(0, succ, 2);
    }
    const auto before = pf.prefetchesRequested();
    pf.onMiss(0, 0x9000, 8); // make lastMiss != A
    pf.onMiss(0, A, 9);      // succ(A) has 3 entries; degree is 1
    EXPECT_EQ(pf.prefetchesRequested(), before + 1);
}

namespace
{

/**
 * Empirical same-set probe, independent of the table's hash: in a
 * direct-mapped 4-set table, allocate trigger @p a then trigger @p b;
 * b's allocation evicts a exactly when the two map to the same set.
 */
bool
corrSameSet(Addr a, Addr b)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationConfig cfg;
    cfg.entries = 4;
    cfg.assoc = 1;
    CorrelationDataPrefetcher pf(cache, cfg);
    pf.onMiss(0, a, 1);        // lastMiss := a
    pf.onMiss(0, b, 2);        // records a -> b (allocates a)
    pf.onMiss(0, 0x7fff00, 3); // records b -> ... (allocates b)
    return pf.evictions() == 1;
}

} // namespace

TEST(Correlation, SetAssociativityScopesReplacement)
{
    // Find three triggers sharing one set and a helper in another —
    // probed empirically so the test survives hash changes.
    const Addr base = 0x100000;
    std::vector<Addr> sameset = {base};
    Addr helper = invalidAddr;
    for (Addr c = base + 0x40; c < base + 64 * 0x40; c += 0x40) {
        if (corrSameSet(base, c)) {
            if (sameset.size() < 3)
                sameset.push_back(c);
        } else if (helper == invalidAddr) {
            helper = c;
        }
    }
    ASSERT_EQ(sameset.size(), 3u);
    ASSERT_NE(helper, invalidAddr);

    // Same geometry (4 sets) but 2-way: the first two same-set
    // triggers coexist in their set.
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationConfig cfg;
    cfg.entries = 8;
    cfg.assoc = 2;
    CorrelationDataPrefetcher pf(cache, cfg);
    Cycle now = 1;
    auto alloc = [&](Addr t) {
        pf.onMiss(0, t, ++now);
        pf.onMiss(0, helper, ++now); // records t -> helper
    };
    alloc(sameset[0]);
    alloc(sameset[1]);
    EXPECT_EQ(pf.evictions(), 0u);
    EXPECT_FALSE(pf.successorsOf(sameset[0]).empty());
    EXPECT_FALSE(pf.successorsOf(sameset[1]).empty());

    // The third same-set trigger overflows the 2-way set and evicts
    // its LRU way — even though the table still has free entries
    // elsewhere.  Replacement is set-scoped, not global.
    alloc(sameset[2]);
    EXPECT_EQ(pf.evictions(), 1u);
    EXPECT_LE(pf.entryCount(), cfg.entries);
    EXPECT_TRUE(pf.successorsOf(sameset[0]).empty());
    EXPECT_FALSE(pf.successorsOf(sameset[1]).empty());
    EXPECT_FALSE(pf.successorsOf(sameset[2]).empty());
}

namespace
{

struct CorrReplay
{
    std::uint64_t requested = 0;
    std::uint64_t evictions = 0;
    std::uint64_t issued = 0;
    std::size_t entries = 0;
    std::vector<std::vector<Addr>> sampled;
};

/** One deterministic random-miss replay, asserting the AMC table
 *  invariants along the way. */
CorrReplay
runCorrReplay(std::uint64_t seed)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    CorrelationConfig cfg;
    cfg.entries = 64;
    cfg.assoc = 4;
    cfg.successors = 3;
    cfg.degree = 2;
    cfg.depth = 2;
    CorrelationDataPrefetcher pf(cache, cfg);

    Rng rng(seed);
    Cycle now = 1;
    for (int i = 0; i < 5000; ++i) {
        ++now;
        cache.tick(now);
        // 256 hot lines: plenty of repeats AND plenty of conflicts.
        const Addr a = 0x100000 + (rng.next() % 256) * 0x40;
        const auto before = pf.prefetchesRequested();
        pf.onMiss(0, a, now);
        // Per-miss issue bound: at most degree per hop, depth hops.
        EXPECT_LE(pf.prefetchesRequested() - before,
                  std::uint64_t{cfg.degree} * cfg.depth);
        // The table never exceeds its budget.
        EXPECT_LE(pf.entryCount(), cfg.entries);
    }

    CorrReplay r;
    r.requested = pf.prefetchesRequested();
    r.evictions = pf.evictions();
    r.issued = cache.prefetchesIssued(kDPF);
    r.entries = pf.entryCount();
    for (Addr a = 0x100000; a < 0x100000 + 256 * 0x40; a += 0x40) {
        const std::vector<Addr> succ = pf.successorsOf(a);
        // Successor lists honour their per-trigger bound.
        EXPECT_LE(succ.size(), cfg.successors);
        r.sampled.push_back(succ);
    }
    return r;
}

} // namespace

TEST(Correlation, PropertyRandomStreamBoundsAndDeterminism)
{
    for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
        const CorrReplay a = runCorrReplay(seed);
        ASSERT_GT(a.requested, 0u) << seed;
        ASSERT_GT(a.evictions, 0u) << seed; // conflicts exercised

        // Replaying the identical miss stream reproduces the table
        // and every counter bit-for-bit.
        const CorrReplay b = runCorrReplay(seed);
        EXPECT_EQ(a.requested, b.requested) << seed;
        EXPECT_EQ(a.evictions, b.evictions) << seed;
        EXPECT_EQ(a.issued, b.issued) << seed;
        EXPECT_EQ(a.entries, b.entries) << seed;
        EXPECT_EQ(a.sampled, b.sampled) << seed;
    }
}

// ---------------------------------------------------------------
// Semantic prefetcher
// ---------------------------------------------------------------

TEST(Semantic, BtreeHintsCoverMoreLinesThanHeapHints)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    SemanticConfig cfg;
    cfg.lines = 2;
    cfg.btreeLines = 4;
    SemanticDataPrefetcher pf(cache, cfg);

    pf.onHint(DataHintKind::HeapRecord, 0x1000, 1);
    EXPECT_EQ(pf.prefetchesRequested(), 2u);
    pf.onHint(DataHintKind::BtreeChild, 0x4000, 2);
    EXPECT_EQ(pf.prefetchesRequested(), 6u);
    EXPECT_EQ(pf.hintsSeen(), 2u);
    EXPECT_EQ(cache.prefetchesIssued(kDPF), 6u);
}

TEST(Semantic, RepeatedHintsDeduplicated)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    SemanticConfig cfg;
    cfg.lines = 2;
    SemanticDataPrefetcher pf(cache, cfg);

    pf.onHint(DataHintKind::HeapNextSlot, 0x1000, 1);
    const auto requested = pf.prefetchesRequested();
    // The iterator advance path re-announces the same page.
    pf.onHint(DataHintKind::HeapNextSlot, 0x1000, 2);
    pf.onHint(DataHintKind::HeapNextSlot, 0x1008, 3); // same lines
    EXPECT_EQ(pf.prefetchesRequested(), requested);
    EXPECT_EQ(pf.linesDeduped(), 2u * cfg.lines);
    EXPECT_EQ(pf.hintsSeen(), 3u);
}

// ---------------------------------------------------------------
// Hint transport: recorder -> trace -> expander -> DynInst
// ---------------------------------------------------------------

TEST(HintTransport, HintsRideTheTraceAndAttachToInstructions)
{
    FunctionRegistry reg;
    const FunctionId f = reg.declare("F", FunctionTraits::small());
    TraceBuffer trace;
    TraceRecorder rec(trace);
    rec.call(f);
    rec.work(20);
    rec.hint(DataHintKind::BtreeChild, 0xABC0);
    rec.loadAt(0x1000'0000);
    rec.work(10);
    rec.hint(DataHintKind::HeapNextSlot, 0x5540);
    rec.hint(DataHintKind::HeapRecord, invalidAddr); // dropped
    rec.storeAt(0x1000'0040);
    // Back-to-back hints pend together and ride consecutive
    // instructions.
    rec.hint(DataHintKind::HeapRecord, 0x7700);
    rec.hint(DataHintKind::BtreeChild, 0x8800);
    rec.work(6);
    rec.hint(DataHintKind::HeapNextPage, 0x9900);
    rec.hint(DataHintKind::HeapNextSlot, 0xAA00);
    rec.hint(DataHintKind::HeapRecord, 0xBB00);
    rec.work(30);
    rec.ret();

    LayoutBuilder builder(reg);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander ex(reg, image, trace);
    std::vector<DynInst> hinted;
    std::vector<std::size_t> at;
    DynInst inst;
    for (std::size_t i = 0; ex.next(inst); ++i) {
        if (inst.hintAddr != invalidAddr) {
            hinted.push_back(inst);
            at.push_back(i);
        }
    }
    // Each hint rides the instruction after it in the trace; pending
    // hints ride consecutive instructions (a work instruction then
    // the block's cross jump at 35/36, three work instructions of one
    // run at 42-44).  The indices pin that placement in the stream.
    ASSERT_EQ(hinted.size(), 7u);
    EXPECT_EQ(at,
              (std::vector<std::size_t>{22, 34, 35, 36, 42, 43, 44}));
    const std::pair<Addr, DataHintKind> want[] = {
        {0xABC0, DataHintKind::BtreeChild},
        {0x5540, DataHintKind::HeapNextSlot},
        {0x7700, DataHintKind::HeapRecord},
        {0x8800, DataHintKind::BtreeChild},
        {0x9900, DataHintKind::HeapNextPage},
        {0xAA00, DataHintKind::HeapNextSlot},
        {0xBB00, DataHintKind::HeapRecord},
    };
    for (std::size_t i = 0; i < hinted.size(); ++i) {
        EXPECT_EQ(hinted[i].hintAddr, want[i].first) << i;
        EXPECT_EQ(static_cast<DataHintKind>(hinted[i].hintKind),
                  want[i].second)
            << i;
    }
    const InstKind kinds[] = {InstKind::Load,  InstKind::Store,
                              InstKind::IntOp, InstKind::Jump,
                              InstKind::IntOp, InstKind::IntOp,
                              InstKind::IntOp};
    for (std::size_t i = 0; i < hinted.size(); ++i)
        EXPECT_EQ(hinted[i].kind, kinds[i]) << i;
}

TEST(HintTransport, PayloadPacksKindAndAddress)
{
    const TraceEvent e =
        makeHintEvent(DataHintKind::HeapNextPage, 0x1234'5678);
    EXPECT_EQ(e.kind(), EventKind::Hint);
    EXPECT_EQ(hintKindOf(e.payload()), DataHintKind::HeapNextPage);
    EXPECT_EQ(hintAddrOf(e.payload()), 0x1234'5678u);
}

// ---------------------------------------------------------------
// D-side classification (§5.6 rules with AccessSource::DataPrefetch)
// ---------------------------------------------------------------

TEST(DsideClassification, UsefulLateAndPollutingSeparated)
{
    // 4-line cache: 2 sets x 2 ways.
    Cache cache(dcacheConfig(128), nullptr, nullptr);

    // Useful: filled before the demand load arrives.
    ASSERT_TRUE(cache.prefetch(0x2000, 1, kDPF));
    cache.tick(200);
    EXPECT_TRUE(cache.access(0x2000, 200, kLoad, false).hit);
    EXPECT_EQ(cache.prefHits(kDPF), 1u);
    EXPECT_EQ(cache.demandMisses(), 0u);

    // Late: demand load joins the in-flight prefetch.
    ASSERT_TRUE(cache.prefetch(0x2040, 201, kDPF));
    const auto r = cache.access(0x2040, 203, kLoad, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.delayedHit);
    EXPECT_EQ(cache.delayedHits(kDPF), 1u);
    EXPECT_EQ(cache.demandMisses(), 0u);

    // Polluting: filled, never referenced, classified at finalize.
    cache.tick(400);
    ASSERT_TRUE(cache.prefetch(0x3000, 400, kDPF));
    cache.tick(600);
    cache.finalize();
    EXPECT_EQ(cache.useless(kDPF), 1u);
    // Conservation: every issued prefetch classified exactly once.
    EXPECT_EQ(cache.prefetchesIssued(kDPF),
              cache.prefHits(kDPF) + cache.delayedHits(kDPF) +
                  cache.useless(kDPF));
}

TEST(DsideClassification, HierarchyFinalizeCoversL2)
{
    MemoryHierarchy mem;
    // A prefetch into the L2 that is never referenced must be
    // classified useless by MemoryHierarchy::finalize() — the L2 is
    // finalized explicitly, not via the L1 chain.
    ASSERT_TRUE(mem.l2().prefetch(0x7000, 1, kDPF));
    mem.tick(500);
    mem.finalize();
    EXPECT_EQ(mem.l2().useless(kDPF), 1u);
    EXPECT_EQ(mem.l2().prefetchesIssued(kDPF), 1u);
}

// ---------------------------------------------------------------
// Factory + combined engine
// ---------------------------------------------------------------

TEST(Factory, NoneYieldsNoEngine)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    DPrefetchConfig cfg;
    EXPECT_EQ(makeDataPrefetcher(cache, cfg), nullptr);
}

TEST(Factory, KindsProduceNamedEngines)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    const std::pair<DataPrefetchKind, const char *> kinds[] = {
        {DataPrefetchKind::Stride, "stride"},
        {DataPrefetchKind::Correlation, "corr"},
        {DataPrefetchKind::Semantic, "semantic"},
        {DataPrefetchKind::Combined, "combined"},
    };
    for (const auto &[kind, name] : kinds) {
        DPrefetchConfig cfg;
        cfg.kind = kind;
        const auto pf = makeDataPrefetcher(cache, cfg);
        ASSERT_NE(pf, nullptr);
        EXPECT_STREQ(pf->name(), name);
        EXPECT_STREQ(dataPrefetchKindName(kind), name);
    }
}

TEST(Factory, CombinedForwardsAllEventChannels)
{
    Cache cache(dcacheConfig(), nullptr, nullptr);
    DPrefetchConfig cfg;
    cfg.kind = DataPrefetchKind::Combined;
    const auto pf = makeDataPrefetcher(cache, cfg);
    ASSERT_NE(pf, nullptr);

    // Semantic channel reaches the semantic part.
    pf->onHint(DataHintKind::BtreeChild, 0x4000, 1);
    EXPECT_GT(cache.prefetchesIssued(kDPF), 0u);

    // Access channel reaches the stride part: train a stream.
    const auto before = cache.prefetchesIssued(kDPF) +
        cache.squashedPrefetches();
    Addr a = 0x100000;
    for (int i = 0; i < 8; ++i, a += 0x40)
        pf->onAccess(0x400100, a, false, false, i + 2);
    EXPECT_GT(cache.prefetchesIssued(kDPF) +
                  cache.squashedPrefetches(),
              before);
}

// ---------------------------------------------------------------
// Fail-soft wrapper
// ---------------------------------------------------------------

struct ThrowingDataPrefetcher : DataPrefetcher
{
    void
    onAccess(Addr, Addr, bool, bool, Cycle) override
    {
        throw std::runtime_error("injected dprefetch fault");
    }
    const char *name() const override { return "throwy"; }
};

TEST(FailSoft, FirstFaultDisablesInnerAndRunContinues)
{
    FailSoftDataPrefetcher fs(
        std::make_unique<ThrowingDataPrefetcher>());
    EXPECT_FALSE(fs.degraded());
    EXPECT_STREQ(fs.name(), "throwy");

    EXPECT_NO_THROW(fs.onAccess(0x100, 0x1000, false, true, 1));
    EXPECT_TRUE(fs.degraded());
    EXPECT_NE(fs.reason().find("injected dprefetch fault"),
              std::string::npos);
    EXPECT_STREQ(fs.name(), "none (degraded)");

    // Every hook is now a no-op; nothing escapes.
    EXPECT_NO_THROW(fs.onAccess(0x100, 0x1040, false, true, 2));
    EXPECT_NO_THROW(fs.onMiss(0x100, 0x1080, 3));
    EXPECT_NO_THROW(fs.onHint(DataHintKind::HeapRecord, 0x2000, 4));
}

} // namespace
} // namespace cgp
