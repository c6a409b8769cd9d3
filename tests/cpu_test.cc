/**
 * @file
 * Tests for the out-of-order core: throughput bounds, in-order
 * commit, I-cache stall behaviour, perfect-I$ mode, branch-mispredict
 * penalties, and the prefetcher hook points.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cgp.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"

namespace cgp
{

/** Stages ops straight into a core's window and steps its issue
 *  stage alone, so issue order can be observed op by op. */
struct CoreTestAccess
{
    static Core::MicroOp
    decode(Addr pc)
    {
        DynInst inst;
        inst.pc = pc;
        return Core::decode(inst, 0);
    }

    /** Fetch and dispatch an integer op at @p pc; returns its slot. */
    static unsigned
    dispatchAluOp(Core &core, Addr pc)
    {
        DynInst inst;
        inst.pc = pc;
        inst.kind = InstKind::IntOp;
        core.fetchQueue_.push_back(Core::decode(inst, ++core.seqGen_));
        core.doDispatch();
        return core.waiting_.back();
    }

    /** Whether the op at @p pc reads a register the op at @p other
     *  writes (the staged scenarios need independent ops). */
    static bool
    dependsOn(Addr pc, Addr other)
    {
        const Core::MicroOp a = decode(pc);
        const Core::MicroOp b = decode(other);
        return b.dest != 0 && (a.src1 == b.dest || a.src2 == b.dest);
    }

    /** Hold the first source register of the op at @p pc until
     *  @p cycle (0: ready now). */
    static void
    holdSource(Core &core, Addr pc, Cycle cycle)
    {
        core.regReady_[decode(pc).src1] = cycle;
    }

    /** Whether holding @p other's first source would also hold an
     *  operand of the op at @p pc. */
    static bool
    sharesSource(Addr pc, Addr other)
    {
        const Core::MicroOp a = decode(pc);
        const Core::MicroOp b = decode(other);
        return a.src1 == b.src1 || a.src1 == b.src2;
    }

    static void issue(Core &core) { core.doIssue(); }
    static bool
    issued(Core &core, unsigned slot)
    {
        return core.rob_[slot].issued;
    }
    static std::vector<unsigned>
    waiting(const Core &core)
    {
        return core.waiting_;
    }
};

namespace
{

struct Machine
{
    FunctionRegistry reg;
    TraceBuffer trace;
    FunctionId a, b;

    Machine()
    {
        a = reg.declare("A", FunctionTraits::medium());
        b = reg.declare("B", FunctionTraits::small());
    }

    void
    record(unsigned iterations, unsigned work = 50)
    {
        TraceRecorder rec(trace);
        rec.call(a);
        for (unsigned i = 0; i < iterations; ++i) {
            rec.work(work);
            rec.call(b);
            rec.work(work / 2);
            rec.ret();
            rec.branch(i % 4 == 0);
        }
        rec.ret();
    }

    /** Assemble a fresh machine over the trace; owns the core. */
    Core &
    build(CoreConfig cfg = {}, InstrPrefetcher *pf = nullptr)
    {
        LayoutBuilder builder(reg);
        image = builder.buildOriginal();
        expander =
            std::make_unique<InstructionExpander>(reg, image, trace);
        mem = std::make_unique<MemoryHierarchy>();
        core = std::make_unique<Core>(*expander, *mem, pf, cfg);
        return *core;
    }

    /** Run the trace through a fresh machine. */
    Core &
    run(CoreConfig cfg = {}, InstrPrefetcher *pf = nullptr)
    {
        build(cfg, pf).run();
        return *core;
    }

    CodeImage image;
    std::unique_ptr<InstructionExpander> expander;
    std::unique_ptr<MemoryHierarchy> mem;
    std::unique_ptr<Core> core;
};

TEST(Core, CommitsEveryInstruction)
{
    Machine m;
    m.record(50);
    const Core &core = m.run();
    EXPECT_EQ(core.committedInstrs(), m.expander->emittedInstrs());
    EXPECT_GT(core.cycles(), 0u);
}

TEST(Core, IpcWithinMachineWidth)
{
    Machine m;
    m.record(200);
    const Core &core = m.run();
    EXPECT_GT(core.ipc(), 0.1);
    EXPECT_LE(core.ipc(), 4.0); // Table 1: 4-wide
}

TEST(Core, PerfectICacheIsFaster)
{
    Machine m1, m2;
    m1.record(300);
    m2.record(300);
    CoreConfig perfect;
    perfect.perfectICache = true;
    const Core &base = m1.run();
    const Core &ideal = m2.run(perfect);
    EXPECT_EQ(base.committedInstrs(), ideal.committedInstrs());
    EXPECT_LT(ideal.cycles(), base.cycles());
    // No I-cache accesses at all in perfect mode.
    EXPECT_EQ(m2.mem->l1i().demandAccesses(), 0u);
}

TEST(Core, MaxInstrsTruncatesTheRun)
{
    Machine m;
    m.record(500);
    CoreConfig cfg;
    cfg.maxInstrs = 1000;
    const Core &core = m.run(cfg);
    EXPECT_GE(core.committedInstrs(), 1000u);
    EXPECT_LT(core.committedInstrs(), 1200u);
}

TEST(Core, DeterministicCycleCounts)
{
    Machine m1, m2;
    m1.record(100);
    m2.record(100);
    const Core &c1 = m1.run();
    const Core &c2 = m2.run();
    EXPECT_EQ(c1.cycles(), c2.cycles());
    EXPECT_EQ(c1.committedInstrs(), c2.committedInstrs());
}

TEST(Core, BranchStatsPopulated)
{
    Machine m;
    m.record(200);
    const Core &core = m.run();
    EXPECT_GT(core.branchUnit().lookups(), 0u);
    // Calls and returns dominate; after warmup most predict fine.
    EXPECT_LT(core.branchUnit().mispredicts(),
              core.branchUnit().lookups() / 2);
}

TEST(Core, ColdMispredictsCostCycles)
{
    // Same instruction stream, one run with a crippled RAS (depth
    // 1, wrecked by nesting) would be ideal, but the RAS depth
    // config covers it: compare a 32-deep RAS against a 1-deep one
    // under heavy nesting.
    FunctionRegistry reg;
    std::vector<FunctionId> fns;
    for (int i = 0; i < 6; ++i) {
        fns.push_back(reg.declare("n" + std::to_string(i),
                                  FunctionTraits::small()));
    }
    TraceBuffer trace;
    TraceRecorder rec(trace);
    // Deep nesting: n0 -> n1 -> ... -> n5, repeatedly.
    for (int r = 0; r < 50; ++r) {
        for (int i = 0; i < 6; ++i) {
            rec.call(fns[static_cast<std::size_t>(i)]);
            rec.work(10);
        }
        for (int i = 0; i < 6; ++i)
            rec.ret();
    }

    LayoutBuilder builder(reg);
    const CodeImage image = builder.buildOriginal();

    auto run_with_ras = [&](unsigned depth) {
        InstructionExpander ex(reg, image, trace);
        MemoryHierarchy mem;
        CoreConfig cfg;
        cfg.branch.rasEntries = depth;
        Core core(ex, mem, nullptr, cfg);
        core.run();
        return core.cycles();
    };
    const Cycle deep = run_with_ras(32);
    const Cycle shallow = run_with_ras(2);
    EXPECT_LT(deep, shallow);
}

TEST(Core, CgpHooksFireDuringExecution)
{
    Machine m;
    m.record(100);
    LayoutBuilder builder(m.reg);
    m.image = builder.buildOriginal();
    m.expander =
        std::make_unique<InstructionExpander>(m.reg, m.image, m.trace);
    m.mem = std::make_unique<MemoryHierarchy>();
    CgpPrefetcher cgp(m.mem->l1i(), CghcConfig::twoLevel2K32K(), 4);
    Core core(*m.expander, *m.mem, &cgp, CoreConfig{});
    core.run();
    // Two accesses per predicted call/return pair, ~100 iterations.
    EXPECT_GT(cgp.cghc().accesses(), 100u);
    EXPECT_GT(cgp.cghc().hits(), 50u);
}

TEST(Core, StatsGroupExposesCounters)
{
    Machine m;
    m.record(60);
    const Core &core = m.run();
    EXPECT_EQ(core.stats().counterValue("committed_instrs"),
              core.committedInstrs());
    EXPECT_TRUE(core.stats().hasCounter("fetch_icache_stall_cycles"));
    EXPECT_GT(core.stats().formulaValue("ipc"), 0.0);
}

CoreConfig
oneAlu()
{
    CoreConfig cfg;
    cfg.intAlus = 1;
    return cfg;
}

TEST(Core, OlderReadyAluOpIssuesFirst)
{
    constexpr Addr older = 0x400000, younger = 0x400004;
    ASSERT_FALSE(CoreTestAccess::dependsOn(younger, older));

    Machine m;
    Core &core = m.build(oneAlu());
    const unsigned a = CoreTestAccess::dispatchAluOp(core, older);
    const unsigned b = CoreTestAccess::dispatchAluOp(core, younger);

    // Both operands ready, one ALU: the older op takes it.
    CoreTestAccess::issue(core);
    EXPECT_TRUE(CoreTestAccess::issued(core, a));
    EXPECT_FALSE(CoreTestAccess::issued(core, b));
    EXPECT_EQ(CoreTestAccess::waiting(core), std::vector<unsigned>{b});

    CoreTestAccess::issue(core);
    EXPECT_TRUE(CoreTestAccess::issued(core, b));
    EXPECT_TRUE(CoreTestAccess::waiting(core).empty());
}

TEST(Core, SkippedOpKeepsItsAgeInTheIssueOrder)
{
    constexpr Addr first = 0x400000, second = 0x400004,
                   third = 0x400008;
    ASSERT_FALSE(CoreTestAccess::sharesSource(second, first));
    ASSERT_FALSE(CoreTestAccess::sharesSource(third, first));
    ASSERT_FALSE(CoreTestAccess::dependsOn(first, second));
    ASSERT_FALSE(CoreTestAccess::dependsOn(third, second));

    Machine m;
    Core &core = m.build(oneAlu());
    const unsigned a = CoreTestAccess::dispatchAluOp(core, first);
    const unsigned b = CoreTestAccess::dispatchAluOp(core, second);
    const unsigned c = CoreTestAccess::dispatchAluOp(core, third);

    // The oldest op waits on an operand: the next ready one issues,
    // and the skipped op stays ahead of the one the ALU turned away.
    CoreTestAccess::holdSource(core, first, 5);
    CoreTestAccess::issue(core);
    EXPECT_FALSE(CoreTestAccess::issued(core, a));
    EXPECT_TRUE(CoreTestAccess::issued(core, b));
    EXPECT_FALSE(CoreTestAccess::issued(core, c));
    EXPECT_EQ(CoreTestAccess::waiting(core),
              (std::vector<unsigned>{a, c}));

    // Once its operand is ready the oldest op wins the ALU again.
    CoreTestAccess::holdSource(core, first, 0);
    CoreTestAccess::issue(core);
    EXPECT_TRUE(CoreTestAccess::issued(core, a));
    EXPECT_FALSE(CoreTestAccess::issued(core, c));
}

TEST(Core, IssueWidthStopKeepsTheRestInAgeOrder)
{
    constexpr Addr first = 0x400000, second = 0x400004,
                   third = 0x400008;
    ASSERT_FALSE(CoreTestAccess::sharesSource(second, first));
    ASSERT_FALSE(CoreTestAccess::sharesSource(third, first));
    ASSERT_FALSE(CoreTestAccess::dependsOn(first, second));
    ASSERT_FALSE(CoreTestAccess::dependsOn(third, second));

    CoreConfig cfg = oneAlu();
    cfg.issueWidth = 1;
    Machine m;
    Core &core = m.build(cfg);
    const unsigned a = CoreTestAccess::dispatchAluOp(core, first);
    const unsigned b = CoreTestAccess::dispatchAluOp(core, second);
    const unsigned c = CoreTestAccess::dispatchAluOp(core, third);

    // The walk stops at the issue width before it reaches the
    // youngest op, which must stay behind the skipped oldest one.
    CoreTestAccess::holdSource(core, first, 5);
    CoreTestAccess::issue(core);
    EXPECT_TRUE(CoreTestAccess::issued(core, b));
    EXPECT_EQ(CoreTestAccess::waiting(core),
              (std::vector<unsigned>{a, c}));

    CoreTestAccess::holdSource(core, first, 0);
    CoreTestAccess::issue(core);
    EXPECT_TRUE(CoreTestAccess::issued(core, a));
    EXPECT_FALSE(CoreTestAccess::issued(core, c));
}

} // namespace
} // namespace cgp
