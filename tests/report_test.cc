/**
 * @file
 * Tests for the report writers: the comparison table renders the key
 * numbers and refuses mismatched workloads; the JSON form derived
 * from the field lists round-trips and requires every key.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "util/fields.hh"
#include "util/logging.hh"

namespace cgp
{
namespace
{

SimResult
sample(const char *config, Cycle cycles)
{
    SimResult r;
    r.workload = "w";
    r.config = config;
    r.cycles = cycles;
    r.instrs = 1000;
    r.icacheAccesses = 400;
    r.icacheMisses = 40;
    r.nl.issued = 90;
    r.nl.prefHits = 50;
    r.nl.delayedHits = 10;
    r.nl.useless = 30;
    r.cghc.issued = 10;
    r.cghc.prefHits = 8;
    r.cghc.useless = 2;
    r.cghcAccesses = 100;
    r.cghcHits = 80;
    r.busLines = 123;
    return r;
}

TEST(Report, ComparisonNormalizesToFirst)
{
    std::ostringstream os;
    writeComparison({sample("A", 1000), sample("B", 500)}, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("1.000"), std::string::npos);
    EXPECT_NE(out.find("0.500"), std::string::npos);
}

TEST(Report, SimResultJsonRoundTrip)
{
    SimResult r = sample("O5+OM+CGP_4", 2000);
    r.dcacheMisses = 11;
    r.l2Misses = 7;
    r.squashedPrefetches = 3;
    r.branchMispredicts = 21;
    r.prefetchDegraded = true;
    r.degradedReason = "cghc pressure";
    r.instrsPerCall = 43.25;

    const Json j = toJson(r);
    const SimResult back = simResultFromJson(j);
    EXPECT_EQ(back, r);

    // Through text too: serialize, parse, reconstruct.
    const SimResult back2 =
        simResultFromJson(Json::parse(j.dump(2)));
    EXPECT_EQ(back2, r);
}

TEST(Report, SimResultJsonCarriesBothPrefetchSources)
{
    const Json j = toJson(sample("X", 10));
    EXPECT_EQ(j.at("nl").at("issued").asUint(), 90u);
    EXPECT_EQ(j.at("cghc").at("pref_hits").asUint(), 8u);
    EXPECT_EQ(j.at("workload").asString(), "w");
}

TEST(Report, SimResultFromJsonRejectsMissingFields)
{
    Json j = toJson(sample("X", 10));
    Json stripped = Json::object();
    stripped.set("workload", j.at("workload"));
    EXPECT_THROW(simResultFromJson(stripped), std::runtime_error);

    // Every top-level key is required, except the optional blocks,
    // whose absence reads as "not enabled".
    SimResult full = sample("X", 10);
    full.serverEnabled = full.sampledEnabled = true;
    const Json all = toJson(full);
    for (const auto &[key, value] : all.members()) {
        Json dropped = all;
        dropped.remove(key);
        if (key == "server")
            EXPECT_FALSE(simResultFromJson(dropped).serverEnabled);
        else if (key == "sampled")
            EXPECT_FALSE(simResultFromJson(dropped).sampledEnabled);
        else
            EXPECT_THROW(simResultFromJson(dropped), std::runtime_error)
                << key;
    }
}

// The field-list guard: memberCount sees every member of an
// aggregate, so forEachField's static_assert catches a member that
// its struct's list leaves out.
struct Partial
{
    std::uint64_t a = 0;
    std::string b;
    PrefetchBreakdown c;
    std::vector<server::ServerCoreStats> d;

    template <class Self, class F>
    static constexpr void
    fields(Self &self, F &&f)
    {
        f("a", self.a);
        f("c", self.c);
    }
};

TEST(Report, FieldListGuardCountsEveryMember)
{
    static_assert(memberCount<Partial>() == 4);
    static_assert(fieldCount<Partial>() == 2);
    // A flagged block counts its flag: 26 entries, 28 members.
    static_assert(fieldCount<SimResult>() == 28);
    static_assert(memberCount<SimResult>() == 28);
}

TEST(Report, ComparisonRejectsMixedWorkloads)
{
    detail::setThrowOnError(true);
    SimResult a = sample("A", 100);
    SimResult b = sample("B", 100);
    b.workload = "other";
    EXPECT_THROW(
        {
            std::ostringstream os;
            writeComparison({a, b}, os);
        },
        std::logic_error);
    detail::setThrowOnError(false);
}

} // namespace
} // namespace cgp
