/**
 * @file
 * Tests for the SPEC CPU2000 proxy generators.
 */

#include <gtest/gtest.h>

#include "spec/cpu2000.hh"

namespace cgp::spec
{
namespace
{

TEST(Cpu2000Suite, HasThePaperSevenInOrder)
{
    const auto suite = cpu2000Suite();
    ASSERT_EQ(suite.size(), 7u);
    const char *expected[] = {"gzip", "gcc",  "crafty", "parser",
                              "gap",  "bzip2", "twolf"};
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
}

TEST(Cpu2000Suite, GccHasTheLargestHotSet)
{
    const auto suite = cpu2000Suite();
    unsigned gcc_hot = 0;
    for (const auto &s : suite) {
        if (s.name == "gcc")
            gcc_hot = s.hotFunctions;
    }
    for (const auto &s : suite) {
        if (s.name != "gcc") {
            EXPECT_GT(gcc_hot, s.hotFunctions);
        }
    }
}

TEST(SpecProgram, EmitsApproximatelyTargetInstrs)
{
    FunctionRegistry reg;
    SpecProgramSpec spec;
    spec.name = "target-test";
    spec.functions = 30;
    spec.hotFunctions = 12;
    spec.workPerCall = 80.0;
    SpecProgram prog(reg, spec);

    TraceBuffer buf;
    prog.emit(buf, 100'000, 42);
    EXPECT_GE(buf.approxInstrs(), 100'000u);
    EXPECT_LE(buf.approxInstrs(), 115'000u);
}

TEST(SpecProgram, TracesAreBalanced)
{
    FunctionRegistry reg;
    SpecProgramSpec spec;
    spec.name = "balance-test";
    SpecProgram prog(reg, spec);

    TraceBuffer buf;
    prog.emit(buf, 50'000, 7);
    int depth = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
        const auto e = buf.at(i);
        if (e.kind() == EventKind::Call)
            ++depth;
        else if (e.kind() == EventKind::Return)
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(SpecProgram, DeterministicForSeed)
{
    FunctionRegistry reg;
    SpecProgramSpec spec;
    spec.name = "det-test";
    SpecProgram prog(reg, spec);

    TraceBuffer a, b;
    prog.emit(a, 20'000, 99);
    prog.emit(b, 20'000, 99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.at(i).raw(), b.at(i).raw());
}

TEST(SpecProgram, TestAndTrainInputsDiffer)
{
    FunctionRegistry reg;
    SpecProgramSpec spec;
    spec.name = "inputs-test";
    spec.testInstrs = 20'000;
    spec.trainInstrs = 20'000;
    SpecProgram prog(reg, spec);

    TraceBuffer test, train;
    prog.emitTest(test);
    prog.emitTrain(train);
    bool differ = test.size() != train.size();
    for (std::size_t i = 0; !differ && i < test.size(); ++i)
        differ = test.at(i).raw() != train.at(i).raw();
    EXPECT_TRUE(differ);
}

TEST(SpecProgram, OnlyHotFunctionsAreCalled)
{
    FunctionRegistry reg;
    SpecProgramSpec spec;
    spec.name = "hot-test";
    spec.functions = 40;
    spec.hotFunctions = 10;
    SpecProgram prog(reg, spec);

    TraceBuffer buf;
    prog.emit(buf, 100'000, 3);
    const auto first = reg.lookup("hot-test::fn0");
    for (std::size_t i = 0; i < buf.size(); ++i) {
        const auto e = buf.at(i);
        if (e.kind() == EventKind::Call) {
            EXPECT_LT(e.payload() - first, 10u)
                << "cold function called";
        }
    }
}

} // namespace
} // namespace cgp::spec
