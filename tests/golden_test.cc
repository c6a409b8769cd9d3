/**
 * @file
 * Golden-result regression suite: seven small deterministic
 * configurations run end-to-end through runSimulation and their
 * SimResult JSON is byte-compared against the checked-in goldens in
 * tests/golden/.  The simulator is single-threaded per job and
 * Json::dump is byte-stable (fixed insertion order, deterministic
 * number formatting), so any byte difference is a genuine behaviour
 * change — intended changes update the goldens, unintended ones fail
 * here before they reach the paper figures.
 *
 * Regenerating the goldens after an intended behaviour change:
 *
 *     cmake --build build -j && \
 *         CGP_GOLDEN_REGEN=1 ./build/tests/test_golden
 *
 * then inspect `git diff tests/golden/` and commit the new files
 * together with the change that moved the numbers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaigns.hh"
#include "harness/report.hh"
#include "harness/simulator.hh"

#ifndef CGP_GOLDEN_DIR
#error "CGP_GOLDEN_DIR must point at the checked-in goldens"
#endif

namespace cgp
{
namespace
{

struct GoldenCase
{
    const char *file;     ///< file name under tests/golden/
    const char *workload; ///< paper-registry workload name
    SimConfig config;
};

/** A deliberately cramped window: the reorder ring wraps every few
 *  instructions, one ALU and one memory port make issue order
 *  decide which op goes first, and a two-entry LSQ and three-entry
 *  fetch queue backpressure dispatch and fetch. */
SimConfig
smallWindow()
{
    SimConfig c = SimConfig::withCgp(LayoutKind::PettisHansen, 4);
    c.core.rsSize = 6;
    c.core.fetchQueueSize = 3;
    c.core.lsqSize = 2;
    c.core.issueWidth = 2;
    c.core.intAlus = 1;
    c.core.memPorts = 1;
    return c;
}

/** The locked-down matrix: baseline, I-side CGP, D-side combined,
 *  the throttled I+D arbiter point, a small-window core on the
 *  smallest workload whose trace switches threads, and two sampled
 *  runs (one core, and a two-core server). */
std::vector<GoldenCase>
goldenCases()
{
    return {
        {"smoke_o5.json", "smoke-a", SimConfig::o5()},
        {"smoke_cgp4.json", "smoke-a",
         SimConfig::withCgp(LayoutKind::PettisHansen, 4)},
        // The smoke programs barely miss in the D-cache, so the
        // D-side cases run on the small profiling DB workload where
        // the combined engine actually fires.
        {"wiscprof_dcombined.json", "wisc-prof",
         SimConfig::withDPrefetch(DataPrefetchKind::Combined)},
        {"wiscprof_iplusd_arb.json", "wisc-prof",
         SimConfig::withIPlusD(DataPrefetchKind::Combined, true)},
        {"wiscprof_cgp4_smallwindow.json", "wisc-prof", smallWindow()},
        // Sampled results: the warm prefix, window/drain/fast-forward
        // loop and clock jumps, single-core and on a 2-core server.
        {"wiscprof_cgp4_sampled.json", "wisc-prof",
         SimConfig::withSampling(
             SimConfig::withCgp(LayoutKind::PettisHansen, 4), 2500,
             12500, 30000)},
        {"wiscprof_cgp4_server2_sampled.json", "wisc-prof",
         SimConfig::withSampling(
             SimConfig::withServer(
                 SimConfig::withCgp(LayoutKind::PettisHansen, 4), 2,
                 8, 8),
             2000, 10000, 10000)},
    };
}

std::string
goldenPath(const char *file)
{
    return std::string(CGP_GOLDEN_DIR) + "/" + file;
}

bool
regenRequested()
{
    const char *env = std::getenv("CGP_GOLDEN_REGEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run one golden case; the workload bank is shared so the trace is
 *  built once per program regardless of test order. */
SimResult
runCase(const GoldenCase &c)
{
    static exp::PaperWorkloadBank bank;
    return runSimulation(bank.resolve(c.workload), c.config);
}

std::string
serialize(const SimResult &r)
{
    return toJson(r).dump(2) + "\n";
}

TEST(Golden, ResultsMatchCheckedInGoldens)
{
    for (const GoldenCase &c : goldenCases()) {
        const std::string path = goldenPath(c.file);
        const std::string got = serialize(runCase(c));

        if (regenRequested()) {
            std::ofstream out(path, std::ios::binary);
            ASSERT_TRUE(out) << "cannot write " << path;
            out << got;
            continue;
        }

        const std::string want = readFile(path);
        ASSERT_FALSE(want.empty())
            << path << " is missing — regenerate with "
            << "CGP_GOLDEN_REGEN=1 ./test_golden";
        // Byte equality: diffs point at the exact stat that moved.
        EXPECT_EQ(got, want) << c.file;
    }
}

TEST(Golden, RunsAreDeterministicAcrossRepeats)
{
    const GoldenCase c = goldenCases().front();
    EXPECT_EQ(serialize(runCase(c)), serialize(runCase(c)));
}

TEST(Golden, ByteCompareCatchesAPerturbedStat)
{
    // Self-check of the mechanism: a single off-by-one in any stat
    // must change the serialized bytes.
    const GoldenCase c = goldenCases().front();
    SimResult r = runCase(c);
    const std::string clean = serialize(r);
    r.cycles += 1;
    EXPECT_NE(serialize(r), clean);
    r.cycles -= 1;
    r.dpf.useless += 1;
    EXPECT_NE(serialize(r), clean);
}

TEST(Golden, SerializedGoldensRoundTrip)
{
    if (regenRequested())
        GTEST_SKIP() << "regenerating";
    for (const GoldenCase &c : goldenCases()) {
        const std::string want = readFile(goldenPath(c.file));
        ASSERT_FALSE(want.empty()) << c.file;
        const SimResult parsed =
            simResultFromJson(Json::parse(want));
        EXPECT_EQ(serialize(parsed), want) << c.file;
    }
}

} // namespace
} // namespace cgp
