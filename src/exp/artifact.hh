/**
 * @file
 * Artifact layer: machine-readable BENCH_*.json files and the
 * paper-style tables, both derived from a CampaignRun.
 *
 * The BENCH json carries the canonical SimResult serialization plus
 * derived metrics (CPI, miss rates, prefetch usefulness) and this
 * invocation's execution stats (threads, wall time, executed vs
 * skipped) — a perf trajectory a CI run can track over time.  Unlike
 * the run directory, it is a report, not a resume source, so timing
 * belongs here.
 */

#ifndef CGP_EXP_ARTIFACT_HH
#define CGP_EXP_ARTIFACT_HH

#include <optional>
#include <ostream>
#include <string>

#include "exp/engine.hh"
#include "util/json.hh"

namespace cgp::exp
{

/** Full machine-readable form of a finished campaign. */
Json benchJson(const CampaignRun &run);

/** Write benchJson() to @p path (pretty-printed). */
void writeBenchJson(const std::string &path,
                    const CampaignRun &run);

/**
 * Print a finished campaign the way `cgpbench run` and `cgpbench
 * report` show it, as a function of its results alone:
 *
 *  - the absolute-cycles table and the normalized view (config
 *    @p report.normLabel = 1.00, smaller is faster) the paper's bar
 *    charts use;
 *  - the server tables when any result carries a server block, and
 *    the sampled accuracy/speedup tables when any carries a sampled
 *    block (each sampled job is checked against the full-detail job
 *    its "+smp" label was derived from, when the run has one);
 *  - the figure tables @p report selects, then its geomean
 *    paper-reference rows and its note.
 *
 * Failed and pending jobs have no result: their cells print "-".
 */
void printCampaign(const CampaignRun &run, const ReportSpec &report,
                   std::ostream &os);

/**
 * Geometric-mean speedup of config @p labelB over @p labelA across
 * the campaign's workloads; empty if either lacks a result on any
 * workload.
 */
std::optional<double> geomeanSpeedup(const CampaignRun &run,
                                     const std::string &labelA,
                                     const std::string &labelB);

} // namespace cgp::exp

#endif // CGP_EXP_ARTIFACT_HH
