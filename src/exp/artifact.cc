#include "exp/artifact.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exp/integrity.hh"
#include "fault/fault.hh"
#include "harness/report.hh"
#include "util/table.hh"

namespace cgp::exp
{

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0
        ? 0.0
        : static_cast<double>(num) / static_cast<double>(den);
}

/** The cell of a missing result or an undefined ratio. */
const std::string none = "-";

/** @p num / @p den at @p digits, or "-" when @p den is zero. */
std::string
fixedRatio(std::uint64_t num, std::uint64_t den, int digits)
{
    return den == 0 ? none
                    : TablePrinter::fixed(ratio(num, den), digits);
}

/** The results of @p label on every workload; empty if any is
 *  missing (a sum over part of the workloads is not the figure). */
std::vector<const SimResult *>
column(const CampaignRun &run, const std::string &label)
{
    std::vector<const SimResult *> out;
    for (const std::string &w : run.workloadNames()) {
        const SimResult *r = run.find(w, label);
        if (r == nullptr)
            return {};
        out.push_back(r);
    }
    return out;
}

bool
anyResult(const CampaignRun &run, bool SimResult::*flag)
{
    return std::any_of(run.jobs.begin(), run.jobs.end(),
                       [&](const JobSpec &j) {
                           const SimResult *r =
                               run.find(j.workload, j.label);
                           return r != nullptr && r->*flag;
                       });
}

void
printCycleTables(const CampaignRun &run, const ReportSpec &report,
                 std::ostream &os)
{
    const std::vector<std::string> workloads = run.workloadNames();
    const std::vector<std::string> labels = run.configLabels();
    const auto normIt =
        std::find(labels.begin(), labels.end(), report.normLabel);
    const std::string &normLabel =
        normIt == labels.end() ? labels.front() : *normIt;

    TablePrinter abs(run.title + " — execution cycles");
    TablePrinter norm(run.title + " — normalized to " + normLabel +
                      " (lower is faster)");
    std::vector<std::string> header{"workload"};
    header.insert(header.end(), labels.begin(), labels.end());
    abs.setHeader(header);
    norm.setHeader(header);

    for (const std::string &w : workloads) {
        std::vector<std::string> arow{w};
        std::vector<std::string> nrow{w};
        const SimResult *base = run.find(w, normLabel);
        for (const std::string &l : labels) {
            const SimResult *r = run.find(w, l);
            arow.push_back(r == nullptr ? none
                                        : TablePrinter::num(r->cycles));
            nrow.push_back(r == nullptr || base == nullptr
                               ? none
                               : fixedRatio(r->cycles, base->cycles,
                                            report.normDigits));
        }
        abs.addRow(arow);
        norm.addRow(nrow);
    }
    abs.print(os);
    os << "\n";
    norm.print(os);
}

void
printServerTables(const CampaignRun &run, std::ostream &os)
{
    TablePrinter s("Server — throughput and latency");
    s.setHeader({"workload", "config", "cores", "sessions", "queries",
                 "q/Mcycle", "q/sec @1GHz", "p50", "p95", "p99",
                 "port wait"});
    TablePrinter pc("Server — per-core breakdown");
    pc.setHeader({"workload", "config", "core", "util", "instrs",
                  "I$ misses", "D$ misses", "bus lines", "port wait",
                  "queries", "binds"});
    for (const std::string &w : run.workloadNames()) {
        for (const std::string &c : run.configLabels()) {
            const SimResult *r = run.find(w, c);
            if (r == nullptr || !r->serverEnabled)
                continue;
            const server::ServerStats &srv = r->server;
            s.addRow({w, c, TablePrinter::num(srv.cores),
                      TablePrinter::num(srv.sessions),
                      TablePrinter::num(srv.queriesServed),
                      TablePrinter::fixed(srv.queriesPerMcycle(), 2),
                      TablePrinter::fixed(
                          srv.queriesPerMcycle() * 1000.0, 0),
                      TablePrinter::num(srv.latencyP50),
                      TablePrinter::num(srv.latencyP95),
                      TablePrinter::num(srv.latencyP99),
                      TablePrinter::num(srv.portWaitCycles)});
            for (std::size_t i = 0; i < srv.perCore.size(); ++i) {
                const server::ServerCoreStats &core = srv.perCore[i];
                pc.addRow({w, c, std::to_string(i),
                           TablePrinter::percent(core.utilization()),
                           TablePrinter::num(core.instrs),
                           TablePrinter::num(core.icacheMisses),
                           TablePrinter::num(core.dcacheMisses),
                           TablePrinter::num(core.busLines),
                           TablePrinter::num(core.portWaitCycles),
                           TablePrinter::num(core.queries),
                           TablePrinter::num(core.binds)});
            }
            pc.addRule();
        }
        s.addRule();
    }
    s.print(os);
    os << "\n";
    pc.print(os);
}

/** The full-detail result sampled job (@p workload, @p label)
 *  estimates: the job labelled with the part before "+smp". */
const SimResult *
fullDetailOf(const CampaignRun &run, const std::string &workload,
             const std::string &label)
{
    const SimResult *base =
        run.find(workload, label.substr(0, label.find("+smp")));
    return base != nullptr && !base->sampledEnabled ? base : nullptr;
}

double
relErr(double estimate, double truth)
{
    return truth == 0.0 ? 0.0
                        : std::abs(estimate - truth) / std::abs(truth);
}

void
printSampledTables(const CampaignRun &run, std::ostream &os)
{
    TablePrinter acc("Sampled accuracy — estimate vs full detail");
    acc.setHeader({"workload", "config", "metric",
                   "estimate [95% CI]", "truth", "in CI", "rel err"});
    TablePrinter spd("Sampled speedup — detailed cycles vs full");
    spd.setHeader({"workload", "config", "windows", "detailed cyc",
                   "full cyc", "speedup", "clock err"});

    for (const std::string &w : run.workloadNames()) {
        bool any = false;
        for (const std::string &c : run.configLabels()) {
            const SimResult *r = run.find(w, c);
            if (r == nullptr || !r->sampledEnabled)
                continue;
            any = true;
            const sample::SampledStats &smp = r->sampled;
            const SimResult *base = fullDetailOf(run, w, c);

            struct MetricRow
            {
                const char *name;
                const sample::SampledEstimate &est;
                double truth;
                int digits;
            };
            const MetricRow rows[] = {
                {"CPI", smp.cpi,
                 base ? ratio(base->cycles, base->instrs) : 0.0, 3},
                {"L1-I miss", smp.l1iMissRate,
                 base ? ratio(base->icacheMisses, base->icacheAccesses)
                      : 0.0,
                 4},
                {"L1-D miss", smp.l1dMissRate,
                 base ? ratio(base->dcacheMisses, base->dcacheAccesses)
                      : 0.0,
                 4},
            };
            for (const MetricRow &m : rows) {
                const std::string estimate =
                    TablePrinter::fixed(m.est.mean, m.digits) + " [" +
                    TablePrinter::fixed(m.est.ciLow, m.digits) + ", " +
                    TablePrinter::fixed(m.est.ciHigh, m.digits) + "]";
                if (base == nullptr) {
                    acc.addRow({w, c, m.name, estimate, none, none,
                                none});
                    continue;
                }
                acc.addRow({w, c, m.name, estimate,
                            TablePrinter::fixed(m.truth, m.digits),
                            m.est.contains(m.truth) ? "yes" : "NO",
                            TablePrinter::percent(
                                relErr(m.est.mean, m.truth))});
            }

            spd.addRow(
                {w, c, TablePrinter::num(smp.windows),
                 TablePrinter::num(smp.detailedCycles),
                 base ? TablePrinter::num(base->cycles) : none,
                 base && smp.detailedCycles != 0
                     ? fixedRatio(base->cycles, smp.detailedCycles, 1) +
                         "x"
                     : none,
                 base ? TablePrinter::percent(relErr(
                            static_cast<double>(r->cycles),
                            static_cast<double>(base->cycles)))
                      : none});
        }
        if (any) {
            acc.addRule();
            spd.addRule();
        }
    }
    acc.print(os);
    os << "\n";
    spd.print(os);
}

void
printCallSpacing(const CampaignRun &run, std::ostream &os)
{
    const std::string first = run.configLabels().front();
    TablePrinter t("Instructions between successive calls (" + first +
                   ")");
    t.setHeader({"workload", "instrs/call"});
    for (const std::string &w : run.workloadNames()) {
        const SimResult *r = run.find(w, first);
        t.addRow({w, r ? TablePrinter::fixed(r->instrsPerCall, 1)
                       : none});
    }
    t.print(os);
}

void
printIMisses(const CampaignRun &run, std::ostream &os)
{
    const std::vector<std::string> labels = run.configLabels();
    const std::string &first = labels.front();
    TablePrinter t("L1 I-cache demand misses");
    std::vector<std::string> header{"workload"};
    header.insert(header.end(), labels.begin(), labels.end());
    for (std::size_t i = 1; i < labels.size(); ++i)
        header.push_back(labels[i] + " / " + first);
    t.setHeader(header);

    for (const std::string &w : run.workloadNames()) {
        std::vector<std::string> row{w};
        const SimResult *base = run.find(w, first);
        for (const std::string &l : labels) {
            const SimResult *r = run.find(w, l);
            row.push_back(r ? TablePrinter::num(r->icacheMisses) : none);
        }
        for (std::size_t i = 1; i < labels.size(); ++i) {
            const SimResult *r = run.find(w, labels[i]);
            row.push_back(r && base ? fixedRatio(r->icacheMisses,
                                                 base->icacheMisses, 3)
                                    : none);
        }
        t.addRow(row);
    }
    t.print(os);

    TablePrinter agg("Aggregate I-miss reduction vs " + first);
    agg.setHeader({"config", "reduction"});
    std::uint64_t baseSum = 0;
    for (const SimResult *r : column(run, first))
        baseSum += r->icacheMisses;
    for (std::size_t i = 1; i < labels.size(); ++i) {
        const std::vector<const SimResult *> col =
            column(run, labels[i]);
        std::uint64_t sum = 0;
        for (const SimResult *r : col)
            sum += r->icacheMisses;
        agg.addRow({labels[i],
                    col.empty() || baseSum == 0
                        ? none
                        : TablePrinter::percent(1.0 -
                                                ratio(sum, baseSum))});
    }
    os << "\n";
    agg.print(os);
}

void
printPrefetchClasses(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Prefetch classification (all workloads summed)");
    t.setHeader({"config", "issued", "pref hits", "delayed hits",
                 "useless", "useful frac", "bus lines"});
    for (const std::string &c : run.configLabels()) {
        const std::vector<const SimResult *> col = column(run, c);
        if (col.empty()) {
            t.addRow({c, none, none, none, none, none, none});
            continue;
        }
        PrefetchBreakdown sum;
        std::uint64_t bus = 0;
        for (const SimResult *r : col) {
            sum += r->totalPrefetch();
            bus += r->busLines;
        }
        if (sum.issued == 0) // a no-prefetch baseline
            continue;
        t.addRow({c, TablePrinter::num(sum.issued),
                  TablePrinter::num(sum.prefHits),
                  TablePrinter::num(sum.delayedHits),
                  TablePrinter::num(sum.useless),
                  TablePrinter::percent(sum.usefulFraction()),
                  TablePrinter::num(bus)});
    }
    t.print(os);

    TablePrinter pw("Prefetch classification per workload");
    pw.setHeader({"workload", "config", "pref hits", "delayed hits",
                  "useless"});
    for (const std::string &w : run.workloadNames()) {
        for (const std::string &c : run.configLabels()) {
            const SimResult *r = run.find(w, c);
            if (r == nullptr) {
                pw.addRow({w, c, none, none, none});
                continue;
            }
            const PrefetchBreakdown p = r->totalPrefetch();
            if (p.issued == 0)
                continue;
            pw.addRow({w, c, TablePrinter::num(p.prefHits),
                       TablePrinter::num(p.delayedHits),
                       TablePrinter::num(p.useless)});
        }
        pw.addRule();
    }
    os << "\n";
    pw.print(os);
}

void
printCgpSources(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("CGP prefetches by source");
    t.setHeader({"workload", "config", "source", "issued", "pref hits",
                 "delayed hits", "useless", "useful frac",
                 "share of useless"});
    // One NL row and one CGHC row per (workload, config) pair.
    const auto addPair = [&t](const std::string &w, const std::string &c,
                              const PrefetchBreakdown *nl,
                              const PrefetchBreakdown *cghc) {
        const std::pair<const char *, const PrefetchBreakdown *> rows[] =
            {{"NL", nl}, {"CGHC", cghc}};
        for (const auto &[src, p] : rows) {
            if (p == nullptr) {
                t.addRow({w, c, src, none, none, none, none, none, none});
                continue;
            }
            const std::uint64_t useless = nl->useless + cghc->useless;
            t.addRow({w, c, src, TablePrinter::num(p->issued),
                      TablePrinter::num(p->prefHits),
                      TablePrinter::num(p->delayedHits),
                      TablePrinter::num(p->useless),
                      TablePrinter::percent(p->usefulFraction()),
                      useless == 0 ? none
                                   : TablePrinter::percent(
                                         ratio(p->useless, useless))});
        }
    };
    for (const std::string &c : run.configLabels()) {
        for (const std::string &w : run.workloadNames()) {
            const SimResult *r = run.find(w, c);
            addPair(w, c, r ? &r->nl : nullptr, r ? &r->cghc : nullptr);
        }
        const std::vector<const SimResult *> col = column(run, c);
        PrefetchBreakdown nl, cghc;
        for (const SimResult *r : col) {
            nl += r->nl;
            cghc += r->cghc;
        }
        addPair("TOTAL", c, col.empty() ? nullptr : &nl,
                col.empty() ? nullptr : &cghc);
        t.addRule();
    }
    t.print(os);
}

void
printCpu2000(const CampaignRun &run, std::ostream &os)
{
    const std::vector<std::string> labels = run.configLabels();
    const std::string &base = labels.front();
    const std::string &last = labels.back();
    TablePrinter t("Speedups over " + base + " and the gap to " + last);
    std::vector<std::string> header{"benchmark", base + " cycles",
                                    "I$ miss ratio"};
    for (std::size_t i = 1; i + 1 < labels.size(); ++i)
        header.push_back(labels[i] + " speedup");
    header.push_back(last + " gap");
    t.setHeader(header);

    for (const std::string &w : run.workloadNames()) {
        const SimResult *b = run.find(w, base);
        std::vector<std::string> row{
            w, b ? TablePrinter::num(b->cycles) : none,
            b ? TablePrinter::percent(
                    ratio(b->icacheMisses, b->icacheAccesses), 2)
              : none};
        for (std::size_t i = 1; i + 1 < labels.size(); ++i) {
            const SimResult *r = run.find(w, labels[i]);
            row.push_back(b && r ? fixedRatio(b->cycles, r->cycles, 3)
                                 : none);
        }
        const SimResult *p = run.find(w, last);
        row.push_back(b && p && p->cycles != 0
                          ? TablePrinter::percent(
                                ratio(b->cycles, p->cycles) - 1.0)
                          : none);
        t.addRow(row);
    }
    t.print(os);
}

void
printDataSide(const CampaignRun &run, std::ostream &os)
{
    const std::vector<std::string> labels = run.configLabels();
    TablePrinter t("L1-D demand misses");
    t.setHeader({"workload", "config", "D$ accesses", "D$ misses",
                 "vs " + labels.front(), "L2 misses"});
    TablePrinter p("D-prefetch classification");
    p.setHeader({"workload", "config", "issued", "pref hits",
                 "delayed hits", "useless", "useful frac",
                 "squashed"});
    for (const std::string &w : run.workloadNames()) {
        const SimResult *base = run.find(w, labels.front());
        for (const std::string &c : labels) {
            const SimResult *r = run.find(w, c);
            if (r == nullptr) {
                t.addRow({w, c, none, none, none, none});
                continue;
            }
            t.addRow({w, c, TablePrinter::num(r->dcacheAccesses),
                      TablePrinter::num(r->dcacheMisses),
                      base ? fixedRatio(r->dcacheMisses,
                                        base->dcacheMisses, 3)
                           : none,
                      TablePrinter::num(r->l2Misses)});
            if (r->dpf.issued == 0)
                continue;
            p.addRow({w, c, TablePrinter::num(r->dpf.issued),
                      TablePrinter::num(r->dpf.prefHits),
                      TablePrinter::num(r->dpf.delayedHits),
                      TablePrinter::num(r->dpf.useless),
                      TablePrinter::percent(r->dpf.usefulFraction()),
                      TablePrinter::num(r->dSquashedPrefetches)});
        }
        t.addRule();
        p.addRule();
    }
    t.print(os);
    os << "\n";
    p.print(os);
}

void
printTraffic(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Prefetch traffic on the L2 port");
    t.setHeader({"workload", "config", "issued I", "issued D", "useful",
                 "squashed+dup", "bus lines"});
    TablePrinter a("Arbiter accounting");
    a.setHeader({"workload", "config", "engine", "issued", "deferred",
                 "dropped", "dup-merged"});
    for (const std::string &w : run.workloadNames()) {
        for (const std::string &c : run.configLabels()) {
            const SimResult *r = run.find(w, c);
            if (r == nullptr) {
                t.addRow({w, c, none, none, none, none, none});
                continue;
            }
            const std::uint64_t useful = r->nl.prefHits +
                r->nl.delayedHits + r->cghc.prefHits +
                r->cghc.delayedHits + r->dpf.prefHits +
                r->dpf.delayedHits;
            const std::uint64_t wasted = r->squashedPrefetches +
                r->dSquashedPrefetches + r->arbNl.duplicateMerged +
                r->arbCghc.duplicateMerged + r->arbDpf.duplicateMerged;
            t.addRow({w, c,
                      TablePrinter::num(r->nl.issued + r->cghc.issued),
                      TablePrinter::num(r->dpf.issued),
                      TablePrinter::num(useful), TablePrinter::num(wasted),
                      TablePrinter::num(r->busLines)});
            const std::pair<const char *, const ArbiterBreakdown *>
                engines[] = {{"NL", &r->arbNl},
                             {"CGHC", &r->arbCghc},
                             {"D", &r->arbDpf}};
            for (const auto &[name, b] : engines) {
                if (!b->any())
                    continue;
                a.addRow({w, c, name, TablePrinter::num(b->issued),
                          TablePrinter::num(b->deferred),
                          TablePrinter::num(b->dropped),
                          TablePrinter::num(b->duplicateMerged)});
            }
        }
        t.addRule();
        a.addRule();
    }
    t.print(os);
    os << "\n";
    a.print(os);
}

void
printFigureTable(FigureTable table, const CampaignRun &run,
                 std::ostream &os)
{
    switch (table) {
      case FigureTable::CallSpacing:
        return printCallSpacing(run, os);
      case FigureTable::IMisses:
        return printIMisses(run, os);
      case FigureTable::PrefetchClasses:
        return printPrefetchClasses(run, os);
      case FigureTable::CgpSources:
        return printCgpSources(run, os);
      case FigureTable::Cpu2000:
        return printCpu2000(run, os);
      case FigureTable::DataSide:
        return printDataSide(run, os);
      case FigureTable::Traffic:
        return printTraffic(run, os);
    }
}

} // anonymous namespace

Json
benchJson(const CampaignRun &run)
{
    Json j = Json::object();
    j.set("schema", 2);
    j.set("bench", run.name);
    j.set("title", run.title);
    j.set("seed", run.seed);
    j.set("fingerprint", run.fingerprint);

    Json exec = Json::object();
    exec.set("jobs", run.jobs.size());
    exec.set("executed", run.executed);
    exec.set("skipped", run.skipped);
    exec.set("threads", run.threadsUsed);
    exec.set("steals", run.steals);
    exec.set("wall_seconds", run.wallSeconds);
    exec.set("quarantined", run.quarantined);
    j.set("execution", std::move(exec));

    // Always present so downstream tooling can key on it; empty on a
    // fully healthy campaign.
    Json failures = Json::array();
    for (const JobFailure &f : run.failures) {
        Json e = Json::object();
        e.set("index", f.index);
        e.set("workload", run.jobs[f.index].workload);
        e.set("config", run.jobs[f.index].label);
        e.set("kind", f.kind);
        e.set("message", f.message);
        e.set("attempts", f.attempts);
        failures.push(std::move(e));
    }
    j.set("failures", std::move(failures));

    Json jobs = Json::array();
    for (const JobSpec &job : run.jobs) {
        Json e = Json::object();
        e.set("index", job.index);
        e.set("workload", job.workload);
        e.set("config", job.label);
        e.set("seed", job.seed);

        const bool failed = std::any_of(
            run.failures.begin(), run.failures.end(),
            [&](const JobFailure &f) {
                return f.index == job.index;
            });
        if (failed) {
            // A failed job has no result; its default-constructed
            // SimResult would read as "everything was zero cycles".
            e.set("status", "failed");
            jobs.push(std::move(e));
            continue;
        }
        e.set("status", "ok");
        const SimResult &r = run.results[job.index];
        e.set("result", toJson(r));

        // Derived metrics, precomputed for plotting pipelines.
        Json d = Json::object();
        d.set("ipc", r.ipc());
        d.set("cpi", r.instrs == 0
                  ? 0.0
                  : static_cast<double>(r.cycles) /
                      static_cast<double>(r.instrs));
        d.set("icache_miss_rate",
              ratio(r.icacheMisses, r.icacheAccesses));
        d.set("dcache_miss_rate",
              ratio(r.dcacheMisses, r.dcacheAccesses));
        d.set("l2_misses_per_instr", ratio(r.l2Misses, r.instrs));
        const PrefetchBreakdown total = r.totalPrefetch();
        d.set("prefetch_useful_fraction", total.usefulFraction());
        e.set("derived", std::move(d));
        jobs.push(std::move(e));
    }
    j.set("jobs", std::move(jobs));
    sealJson(j);
    return j;
}

void
writeBenchJson(const std::string &path, const CampaignRun &run)
{
    // Crash here = the campaign completed but the report did not; a
    // resume re-reads the run dir and rewrites the BENCH cheaply.
    fault::hit("exp.pre_bench");
    writeFileAtomicDurable(path, benchJson(run).dump(2) + "\n");
}

void
printCampaign(const CampaignRun &run, const ReportSpec &report,
              std::ostream &os)
{
    if (run.jobs.empty())
        return;
    printCycleTables(run, report, os);
    if (anyResult(run, &SimResult::serverEnabled)) {
        os << "\n";
        printServerTables(run, os);
    }
    if (anyResult(run, &SimResult::sampledEnabled)) {
        os << "\n";
        printSampledTables(run, os);
    }
    for (const FigureTable table : report.tables) {
        os << "\n";
        printFigureTable(table, run, os);
    }
    if (!report.geomeans.empty()) {
        TablePrinter t("Geometric-mean speedups (paper reference)");
        t.setHeader({"config", "over", "speedup", "paper"});
        for (const GeomeanRef &g : report.geomeans) {
            const std::optional<double> s =
                geomeanSpeedup(run, g.labelA, g.labelB);
            t.addRow({g.labelB, g.labelA,
                      s ? TablePrinter::fixed(*s, 3) : none,
                      "~" + TablePrinter::fixed(g.paper, 2)});
        }
        os << "\n";
        t.print(os);
    }
    if (!report.note.empty())
        os << "\n" << report.note << "\n";
}

std::optional<double>
geomeanSpeedup(const CampaignRun &run, const std::string &labelA,
               const std::string &labelB)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const std::string &w : run.workloadNames()) {
        const SimResult *a = run.find(w, labelA);
        const SimResult *b = run.find(w, labelB);
        if (a == nullptr || b == nullptr || a->cycles == 0 ||
            b->cycles == 0)
            return std::nullopt;
        log_sum += std::log(static_cast<double>(a->cycles) /
                            static_cast<double>(b->cycles));
        ++n;
    }
    return n == 0 ? 1.0
                  : std::exp(log_sum / static_cast<double>(n));
}

} // namespace cgp::exp
