/**
 * @file
 * Property tests for the code layout engines: both images must be
 * structurally valid (no overlap, alignment, entry-first), and the
 * Pettis-Hansen image must exhibit the two OM properties the paper
 * relies on — fall-through hot paths and caller/callee adjacency.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "codegen/layout.hh"
#include "codegen/profile.hh"
#include "codegen/registry.hh"
#include "util/rng.hh"

namespace cgp
{
namespace
{

FunctionRegistry
makeRegistry(unsigned n, std::uint64_t seed)
{
    FunctionRegistry reg;
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i) {
        FunctionTraits t;
        switch (rng.nextBelow(4)) {
          case 0:
            t = FunctionTraits::tiny();
            break;
          case 1:
            t = FunctionTraits::small();
            break;
          case 2:
            t = FunctionTraits::medium();
            break;
          default:
            t = FunctionTraits::large();
            break;
        }
        reg.declare("f" + std::to_string(i) + "_" +
                        std::to_string(seed),
                    t);
    }
    return reg;
}

ExecutionProfile
makeProfile(const FunctionRegistry &reg, std::uint64_t seed)
{
    ExecutionProfile p;
    Rng rng(seed);
    const auto n = static_cast<FunctionId>(reg.size());
    for (unsigned e = 0; e < n * 3; ++e) {
        const auto caller = static_cast<FunctionId>(rng.nextBelow(n));
        const auto callee = static_cast<FunctionId>(rng.nextBelow(n));
        if (caller == callee)
            continue;
        const auto w = 1 + rng.nextBelow(100);
        for (std::uint64_t i = 0; i < w; ++i)
            p.onCall(caller, callee);
        p.onEntry(callee);
    }
    // Block edges along each function's hot walk.
    for (const auto &f : reg.functions()) {
        for (std::size_t i = 0; i + 1 < f.hotWalk.size(); ++i) {
            for (int r = 0; r < 5; ++r)
                p.onBlockEdge(f.id, f.hotWalk[i], f.hotWalk[i + 1]);
        }
    }
    return p;
}

/** Validate structural invariants of an image. */
void
checkImage(const FunctionRegistry &reg, const CodeImage &image)
{
    // Every block has a unique, in-bounds, non-overlapping placement.
    std::map<Addr, std::pair<FunctionId, std::uint16_t>> placement;
    for (const auto &f : reg.functions()) {
        // Function starts are cache-line aligned, and equal to the
        // address of the first block in layout order.
        EXPECT_EQ(image.funcStart(f.id) % 32, 0u)
            << "function " << f.name;
        for (std::uint16_t b = 0;
             b < static_cast<std::uint16_t>(f.blocks.size()); ++b) {
            const Addr addr = image.blockAddr(f.id, b);
            EXPECT_GE(addr, CodeImage::textBase);
            EXPECT_LT(addr + f.blocks[b].sizeBytes(),
                      image.textLimit() + 1);
            auto [it, fresh] = placement.emplace(
                addr, std::make_pair(f.id, b));
            EXPECT_TRUE(fresh) << "block address collision";
            (void)it;
        }
    }

    // Walk the placements in address order: intervals must not
    // overlap.
    Addr prev_end = 0;
    for (const auto &[addr, which] : placement) {
        EXPECT_GE(addr, prev_end) << "overlapping blocks";
        const auto &f = reg.function(which.first);
        prev_end = addr + f.blocks[which.second].sizeBytes();
    }

    // Entry block sits at the function start.
    for (const auto &f : reg.functions()) {
        ASSERT_FALSE(f.hotWalk.empty());
        EXPECT_EQ(image.funcStart(f.id),
                  image.blockAddr(f.id, f.hotWalk.front()))
            << "entry not first for " << f.name;
    }

    // The order() list covers every function exactly once.
    std::vector<bool> seen(reg.size(), false);
    for (FunctionId fid : image.order()) {
        ASSERT_LT(fid, reg.size());
        EXPECT_FALSE(seen[fid]);
        seen[fid] = true;
    }
}

class LayoutPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LayoutPropertyTest, OriginalImageIsValid)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    FunctionRegistry reg = makeRegistry(20, seed);
    LayoutBuilder builder(reg);
    checkImage(reg, builder.buildOriginal());
}

TEST_P(LayoutPropertyTest, PettisHansenImageIsValid)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    FunctionRegistry reg = makeRegistry(20, seed);
    const ExecutionProfile profile = makeProfile(reg, seed * 7 + 1);
    LayoutBuilder builder(reg);
    checkImage(reg, builder.buildPettisHansen(profile));
}

TEST_P(LayoutPropertyTest, PettisHansenIsDenserThanOriginal)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    FunctionRegistry reg = makeRegistry(24, seed);
    const ExecutionProfile profile = makeProfile(reg, seed * 13 + 5);
    LayoutBuilder builder(reg);
    const CodeImage o5 = builder.buildOriginal();
    const CodeImage om = builder.buildPettisHansen(profile);
    // The OM image drops inter-function padding, so the text segment
    // shrinks.
    EXPECT_LT(om.textLimit(), o5.textLimit());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutPropertyTest,
                         ::testing::Range(1, 9));

TEST(Layout, PettisHansenMakesHotWalkFallThrough)
{
    // A function whose hot walk is displaced in the original layout
    // must become (mostly) fall-through under PH.
    FunctionRegistry reg;
    const auto id = reg.declare("hot", FunctionTraits::large());
    const Function &f = reg.function(id);

    ExecutionProfile profile;
    for (std::size_t i = 0; i + 1 < f.hotWalk.size(); ++i) {
        for (int r = 0; r < 100; ++r)
            profile.onBlockEdge(id, f.hotWalk[i], f.hotWalk[i + 1]);
    }

    LayoutBuilder builder(reg);
    const CodeImage om = builder.buildPettisHansen(profile);

    unsigned fallthrough = 0;
    for (std::size_t i = 0; i + 1 < f.hotWalk.size(); ++i) {
        const auto cur = f.hotWalk[i];
        const auto next = f.hotWalk[i + 1];
        const Addr end = om.blockAddr(id, cur) +
            f.blocks[cur].sizeBytes();
        if (om.blockAddr(id, next) == end)
            ++fallthrough;
    }
    // All profiled hot transitions chain contiguously.
    EXPECT_EQ(fallthrough, f.hotWalk.size() - 1);

    // Cold blocks are placed after the hot chain.
    Addr max_hot = 0;
    for (auto h : f.hotWalk)
        max_hot = std::max(max_hot, om.blockAddr(id, h));
    for (std::uint16_t b = 0;
         b < static_cast<std::uint16_t>(f.blocks.size()); ++b) {
        if (f.blocks[b].role == BlockRole::Cold) {
            EXPECT_GT(om.blockAddr(id, b), max_hot);
        }
    }
}

TEST(Layout, ClosestIsBestPlacesHeavyPairAdjacent)
{
    FunctionRegistry reg;
    const auto a = reg.declare("caller", FunctionTraits::medium());
    const auto b = reg.declare("callee", FunctionTraits::medium());
    const auto c = reg.declare("stranger", FunctionTraits::medium());

    ExecutionProfile profile;
    for (int i = 0; i < 1000; ++i)
        profile.onCall(a, b);
    profile.onCall(c, a);
    profile.onEntry(a);
    profile.onEntry(b);

    LayoutBuilder builder(reg);
    const CodeImage om = builder.buildPettisHansen(profile);

    // In memory order, callee directly follows caller.
    const auto &order = om.order();
    auto pos = [&order](FunctionId f) {
        return std::find(order.begin(), order.end(), f) -
            order.begin();
    };
    EXPECT_EQ(pos(b), pos(a) + 1);
}

TEST(Layout, UnprofiledFunctionsStillPlaced)
{
    FunctionRegistry reg = makeRegistry(10, 99);
    ExecutionProfile empty;
    LayoutBuilder builder(reg);
    const CodeImage om = builder.buildPettisHansen(empty);
    checkImage(reg, om);
}

TEST(Layout, LayoutKindNames)
{
    EXPECT_STREQ(layoutName(LayoutKind::Original), "O5");
    EXPECT_STREQ(layoutName(LayoutKind::PettisHansen), "O5+OM");
}

} // namespace
} // namespace cgp
