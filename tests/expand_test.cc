/**
 * @file
 * Tests for the instruction expander: structural invariants of the
 * emitted stream, layout independence of the dynamic behaviour, and
 * the control-flow bookkeeping CGP depends on (call/return pairing,
 * function identity, return targets), and the hand-off contract
 * (peek/pop, next and advance agree; popped instructions stay put).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "codegen/layout.hh"
#include "trace/expand.hh"
#include "trace/recorder.hh"
#include "trace/source.hh"

namespace cgp
{
namespace
{

struct StreamFixture
{
    FunctionRegistry reg;
    TraceBuffer trace;
    FunctionId a, b, c;

    StreamFixture()
    {
        a = reg.declare("A", FunctionTraits::medium());
        b = reg.declare("B", FunctionTraits::small());
        c = reg.declare("C", FunctionTraits::tiny());

        TraceRecorder rec(trace);
        rec.call(a);
        for (int i = 0; i < 20; ++i) {
            rec.work(40);
            rec.call(b);
            rec.work(25);
            rec.loadAt(0x1000'0000 + i * 64);
            rec.call(c);
            rec.work(8);
            rec.ret();
            rec.branch(i % 3 == 0);
            rec.ret();
            rec.storeAt(0x1000'4000 + i * 32);
        }
        rec.ret();
    }
};

std::vector<DynInst>
expandAll(const FunctionRegistry &reg, const CodeImage &image,
          const TraceBuffer &trace, ExecutionProfile *profile = nullptr)
{
    InstructionExpander ex(reg, image, trace);
    if (profile != nullptr)
        ex.setProfile(profile);
    std::vector<DynInst> out;
    DynInst inst;
    while (ex.next(inst))
        out.push_back(inst);
    return out;
}

TEST(Expander, EmitsBalancedCallsAndReturns)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const auto stream =
        expandAll(s.reg, builder.buildOriginal(), s.trace);

    int depth = 0;
    std::uint64_t calls = 0, rets = 0;
    for (const auto &inst : stream) {
        if (inst.kind == InstKind::Call) {
            ++depth;
            ++calls;
        } else if (inst.kind == InstKind::Return) {
            --depth;
            ++rets;
        }
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(calls, rets);
    EXPECT_EQ(calls, 41u); // 1 root + 20 * (B + C)
}

TEST(Expander, PcsStayInsideTheOwningFunction)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    for (const auto &inst : stream) {
        if (inst.func == invalidFunctionId)
            continue; // root call site
        const Function &f = s.reg.function(inst.func);
        // The pc must land inside one of the function's blocks.
        bool inside = false;
        for (std::uint16_t b = 0;
             b < static_cast<std::uint16_t>(f.blocks.size()); ++b) {
            const Addr base = image.blockAddr(inst.func, b);
            if (inst.pc >= base &&
                inst.pc < base + f.blocks[b].sizeBytes()) {
                inside = true;
                break;
            }
        }
        EXPECT_TRUE(inside) << "pc outside function body";
        EXPECT_EQ(inst.funcStart, image.funcStart(inst.func));
    }
}

TEST(Expander, CallsCarryCalleeIdentity)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    for (const auto &inst : stream) {
        if (inst.kind != InstKind::Call)
            continue;
        ASSERT_NE(inst.otherFunc, invalidFunctionId);
        EXPECT_EQ(inst.target, image.funcStart(inst.otherFunc));
        EXPECT_EQ(inst.otherFuncStart, inst.target);
        EXPECT_TRUE(inst.taken);
    }
}

TEST(Expander, ReturnsTargetTheCallerResumePoint)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    // After each return into a traced function, the next emitted
    // instruction must be at the return's target.
    for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
        const auto &inst = stream[i];
        if (inst.kind != InstKind::Return)
            continue;
        if (inst.otherFunc == invalidFunctionId)
            continue; // root return
        EXPECT_EQ(stream[i + 1].pc, inst.target);
        EXPECT_EQ(stream[i + 1].func, inst.otherFunc);
        EXPECT_EQ(inst.otherFuncStart,
                  image.funcStart(inst.otherFunc));
    }
}

TEST(Expander, TakenControlFlowIsConsistent)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto stream = expandAll(s.reg, image, s.trace);

    for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
        const auto &inst = stream[i];
        if (inst.kind == InstKind::Jump) {
            EXPECT_TRUE(inst.taken);
            EXPECT_EQ(stream[i + 1].pc, inst.target);
        } else if (inst.kind == InstKind::CondBranch && inst.taken) {
            EXPECT_EQ(stream[i + 1].pc, inst.target);
        } else if (inst.kind == InstKind::CondBranch) {
            // Not taken: fall through.
            EXPECT_EQ(stream[i + 1].pc, inst.pc + instrBytes);
        }
    }
}

TEST(Expander, SameDynamicsUnderBothLayouts)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    ExecutionProfile profile;
    const auto o5 = expandAll(s.reg, builder.buildOriginal(), s.trace,
                              &profile);
    const auto om = expandAll(
        s.reg, builder.buildPettisHansen(profile), s.trace);

    auto count = [](const std::vector<DynInst> &v, InstKind k) {
        std::size_t n = 0;
        for (const auto &i : v)
            n += i.kind == k ? 1 : 0;
        return n;
    };
    // Calls, returns, branches, loads and stores are layout
    // independent; only Jump counts differ (layout adjacency).
    EXPECT_EQ(count(o5, InstKind::Call), count(om, InstKind::Call));
    EXPECT_EQ(count(o5, InstKind::Return),
              count(om, InstKind::Return));
    EXPECT_EQ(count(o5, InstKind::CondBranch),
              count(om, InstKind::CondBranch));
    EXPECT_EQ(count(o5, InstKind::Load) + count(o5, InstKind::Store),
              count(om, InstKind::Load) + count(om, InstKind::Store));
    // The OM layout straightens the walk: fewer jumps.
    EXPECT_LE(count(om, InstKind::Jump), count(o5, InstKind::Jump));
}

TEST(Expander, InstrScaleShrinksWork)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();

    InstructionExpander full(s.reg, image, s.trace);
    ExpanderConfig scaled_cfg;
    scaled_cfg.instrScale = 0.88;
    InstructionExpander scaled(s.reg, image, s.trace, scaled_cfg);

    DynInst inst;
    while (full.next(inst)) {
    }
    while (scaled.next(inst)) {
    }
    EXPECT_LT(scaled.emittedInstrs(), full.emittedInstrs());
    // Work dominates this trace, so the ratio lands near 0.88.
    const double ratio =
        static_cast<double>(scaled.emittedInstrs()) /
        static_cast<double>(full.emittedInstrs());
    EXPECT_NEAR(ratio, 0.88, 0.05);
}

TEST(Expander, DeterministicAcrossRuns)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    const auto one = expandAll(s.reg, image, s.trace);
    const auto two = expandAll(s.reg, image, s.trace);
    ASSERT_EQ(one.size(), two.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].pc, two[i].pc);
        EXPECT_EQ(one[i].kind, two[i].kind);
    }
}

TEST(Expander, StatsAccounting)
{
    StreamFixture s;
    LayoutBuilder builder(s.reg);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander ex(s.reg, image, s.trace);
    DynInst inst;
    std::uint64_t n = 0;
    while (ex.next(inst))
        ++n;
    EXPECT_EQ(ex.emittedInstrs(), n);
    EXPECT_EQ(ex.emittedCalls(), 41u);
    EXPECT_GT(ex.emittedLoads(), 0u);
    EXPECT_GT(ex.emittedStores(), 0u);
    EXPECT_GT(ex.instrsPerCall(), 1.0);
}

TEST(Expander, ContextSwitchesKeepPerThreadStacks)
{
    FunctionRegistry reg;
    const auto a = reg.declare("A", FunctionTraits::medium());
    const auto b = reg.declare("B", FunctionTraits::medium());

    // Hand-build a two-thread interleaving that switches while
    // thread 0 is two frames deep.
    TraceBuffer trace;
    trace.append(TraceEvent::make(EventKind::Switch, 0));
    trace.append(TraceEvent::make(EventKind::Call, a));
    trace.append(TraceEvent::make(EventKind::Work, 10));
    trace.append(TraceEvent::make(EventKind::Call, b));
    trace.append(TraceEvent::make(EventKind::Work, 5));
    trace.append(TraceEvent::make(EventKind::Switch, 1));
    trace.append(TraceEvent::make(EventKind::Call, b));
    trace.append(TraceEvent::make(EventKind::Work, 7));
    trace.append(TraceEvent::make(EventKind::Return, 0));
    trace.append(TraceEvent::make(EventKind::Switch, 0));
    trace.append(TraceEvent::make(EventKind::Work, 5));
    trace.append(TraceEvent::make(EventKind::Return, 0));
    trace.append(TraceEvent::make(EventKind::Return, 0));

    LayoutBuilder builder(reg);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander ex(reg, image, trace);
    std::vector<DynInst> stream;
    DynInst inst;
    while (ex.next(inst))
        stream.push_back(inst);

    // Thread 0's final returns unwind B then A.
    std::vector<FunctionId> returns;
    for (const auto &i : stream) {
        if (i.kind == InstKind::Return)
            returns.push_back(i.func);
    }
    ASSERT_EQ(returns.size(), 3u);
    EXPECT_EQ(returns[0], b); // thread 1's B
    EXPECT_EQ(returns[1], b); // thread 0's B
    EXPECT_EQ(returns[2], a); // thread 0's A
}

TEST(Expander, ZeroPeriodsAreRejected)
{
    StreamFixture s;
    const CodeImage image = LayoutBuilder(s.reg).buildOriginal();
    BufferTraceSource source(s.trace);
    detail::setThrowOnError(true);
    for (unsigned ExpanderConfig::*period :
         {&ExpanderConfig::stackLoadEvery, &ExpanderConfig::stackStoreEvery,
          &ExpanderConfig::mulEvery}) {
        ExpanderConfig cfg;
        cfg.*period = 0;
        EXPECT_THROW(InstructionExpander(s.reg, image, s.trace, cfg),
                     std::logic_error);
        EXPECT_THROW(InstructionExpander(s.reg, image, source, cfg),
                     std::logic_error);
    }
    detail::setThrowOnError(false);
}

/**
 * Two threads interleaved by Switch events.  Thread 0 is switched out
 * two frames deep; work bursts span several blocks.  With
 * @p control_flow the trace also carries branches, data accesses and
 * hints; without, every IntOp/MulOp/Load/Store in the stream is a
 * work instruction.
 */
TraceBuffer
twoThreadTrace(FunctionId a, FunctionId b, bool control_flow)
{
    TraceBuffer trace;
    auto ev = [&trace](EventKind k, std::uint64_t payload) {
        trace.append(TraceEvent::make(k, payload));
    };
    for (std::uint64_t r = 0; r < 8; ++r) {
        ev(EventKind::Switch, 0);
        if (r == 0)
            ev(EventKind::Call, a);
        ev(EventKind::Work, 11 + 5 * r);
        ev(EventKind::Call, b);
        ev(EventKind::Work, 17 + 3 * r);
        if (control_flow) {
            ev(EventKind::Branch, r & 1);
            trace.append(makeHintEvent(DataHintKind::HeapRecord,
                                       0x2000 + r * 64));
            trace.append(makeHintEvent(DataHintKind::BtreeChild,
                                       0x3000 + r * 64));
            ev(EventKind::Load, 0x1000'0000 + r * 64);
            ev(EventKind::Work, 3);
            ev(EventKind::Store, 0x1000'4000 + r * 32);
        }
        ev(EventKind::Switch, 1);
        if (r == 0)
            ev(EventKind::Call, a);
        ev(EventKind::Work, 23 + r);
        ev(EventKind::Call, b);
        ev(EventKind::Work, 7);
        ev(EventKind::Return, 0);
        ev(EventKind::Switch, 0);
        ev(EventKind::Work, 4 + r);
        ev(EventKind::Return, 0);
    }
    ev(EventKind::Return, 0);
    ev(EventKind::Switch, 1);
    ev(EventKind::Return, 0);
    return trace;
}

auto
fieldsOf(const DynInst &i)
{
    return std::tie(i.pc, i.kind, i.taken, i.target, i.memAddr, i.func,
                    i.funcStart, i.otherFunc, i.otherFuncStart,
                    i.hintAddr, i.hintKind);
}

auto
countersOf(const InstructionExpander &ex)
{
    return std::make_tuple(ex.emittedInstrs(), ex.emittedCalls(),
                           ex.emittedBranches(), ex.emittedJumps(),
                           ex.emittedLoads(), ex.emittedStores(),
                           ex.instrsPerCall());
}

struct TwoThreadFixture
{
    FunctionRegistry reg;
    FunctionId a = reg.declare("A", FunctionTraits::medium());
    FunctionId b = reg.declare("B", FunctionTraits::small());
};

TEST(ExpanderHandOff, PeekPopNextAndAdvanceAgree)
{
    TwoThreadFixture s;
    const TraceBuffer trace = twoThreadTrace(s.a, s.b, true);
    const CodeImage image = LayoutBuilder(s.reg).buildOriginal();

    InstructionExpander by_peek(s.reg, image, trace);
    std::vector<DynInst> peeked;
    while (const DynInst *inst = by_peek.peek()) {
        peeked.push_back(*inst);
        by_peek.pop();
    }
    EXPECT_TRUE(by_peek.endOfStream());

    InstructionExpander by_next(s.reg, image, trace);
    std::vector<DynInst> nexted;
    DynInst inst;
    while (by_next.next(inst))
        nexted.push_back(inst);

    ASSERT_EQ(peeked.size(), nexted.size());
    ASSERT_GT(peeked.size(), 500u);
    for (std::size_t i = 0; i < peeked.size(); ++i)
        ASSERT_TRUE(fieldsOf(peeked[i]) == fieldsOf(nexted[i])) << i;
    EXPECT_EQ(countersOf(by_peek), countersOf(by_next));
    EXPECT_EQ(by_peek.emittedInstrs(), peeked.size());

    for (const std::uint64_t k : {1u, 37u, 100u, 333u}) {
        InstructionExpander skipped(s.reg, image, trace);
        ASSERT_EQ(skipped.advance(k), k);
        std::size_t i = k;
        while (skipped.next(inst)) {
            ASSERT_LT(i, peeked.size());
            ASSERT_TRUE(fieldsOf(inst) == fieldsOf(peeked[i]))
                << "advance(" << k << ") then next() at " << i;
            ++i;
        }
        EXPECT_EQ(i, peeked.size());
        EXPECT_EQ(countersOf(skipped), countersOf(by_peek));
    }
}

TEST(ExpanderHandOff, PoppedInstructionStaysPutUntilNextPeek)
{
    TwoThreadFixture s;
    const TraceBuffer trace = twoThreadTrace(s.a, s.b, true);
    const CodeImage image = LayoutBuilder(s.reg).buildOriginal();
    InstructionExpander ex(s.reg, image, trace);

    std::size_t n = 0;
    while (const DynInst *inst = ex.peek()) {
        const DynInst copy = *inst;
        ex.pop();
        // Statistics reads do not disturb the buffer either.
        (void)ex.emittedInstrs();
        (void)ex.endOfStream();
        ASSERT_TRUE(fieldsOf(*inst) == fieldsOf(copy)) << n;
        ++n;
    }
    EXPECT_EQ(n, ex.emittedInstrs());
}

TEST(ExpanderHandOff, WorkKindsMatchPerThreadModuloReference)
{
    // Private to the expander: the synthetic stack segment layout.
    constexpr Addr stack_base = 0x7f00'0000;
    constexpr Addr stack_stride = 0x10'0000;

    TwoThreadFixture s;
    const TraceBuffer trace = twoThreadTrace(s.a, s.b, false);
    const CodeImage image = LayoutBuilder(s.reg).buildOriginal();

    const unsigned periods[][3] = {{3, 7, 2}, {1, 1, 1}};
    for (const auto &p : periods) {
        ExpanderConfig cfg;
        cfg.stackLoadEvery = p[0];
        cfg.stackStoreEvery = p[1];
        cfg.mulEvery = p[2];

        // Brute force: replay the trace's Work events with a
        // per-thread work counter and call depth.
        std::vector<std::pair<InstKind, Addr>> expected;
        std::uint64_t count[2] = {0, 0};
        Addr depth[2] = {0, 0};
        std::uint64_t t = 0;
        for (std::size_t e = 0; e < trace.size(); ++e) {
            const TraceEvent ev = trace.at(e);
            switch (ev.kind()) {
              case EventKind::Switch:
                t = ev.payload();
                break;
              case EventKind::Call:
                ++depth[t];
                break;
              case EventKind::Return:
                --depth[t];
                break;
              case EventKind::Work:
                for (std::uint64_t w = 0; w < ev.payload(); ++w) {
                    const std::uint64_t c = ++count[t];
                    const Addr frame =
                        stack_base + t * stack_stride + depth[t] * 128;
                    if (c % p[0] == 0)
                        expected.emplace_back(InstKind::Load,
                                              frame + (c % 16) * 8);
                    else if (c % p[1] == 0)
                        expected.emplace_back(InstKind::Store,
                                              frame + (c % 8) * 8);
                    else if (c % p[2] == 0)
                        expected.emplace_back(InstKind::MulOp,
                                              invalidAddr);
                    else
                        expected.emplace_back(InstKind::IntOp,
                                              invalidAddr);
                }
                break;
              default:
                FAIL() << "unexpected event kind";
            }
        }

        InstructionExpander ex(s.reg, image, trace, cfg);
        std::vector<std::pair<InstKind, Addr>> got;
        while (const DynInst *inst = ex.peek()) {
            if (!isControl(inst->kind))
                got.emplace_back(inst->kind, inst->memAddr);
            ex.pop();
        }
        EXPECT_EQ(got, expected)
            << "periods " << p[0] << "/" << p[1] << "/" << p[2];
    }
}

} // namespace
} // namespace cgp
