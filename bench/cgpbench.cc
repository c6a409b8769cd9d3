/**
 * @file
 * cgpbench — unified driver for the paper's experiment campaigns.
 *
 *   cgpbench list
 *       Show every campaign (and the groups figures/ablations/all).
 *
 *   cgpbench run <campaign|group>... [options]
 *       Run campaigns on the parallel engine, print each one's
 *       tables and paper references (exp::printCampaign), and
 *       write one BENCH_<name>.json per campaign.
 *         --threads N       worker threads (default: hardware)
 *         --dir D           parent directory for resumable run dirs
 *         --seed S          override the campaign seed
 *         --artifact-dir D  where BENCH_*.json goes (default ".")
 *         --fresh           discard any previous run dir first
 *         --quiet           suppress per-job progress logging
 *         --retries N       retry a transiently-failing job N times
 *         --on-fail P       strict (abort) or degrade (finish the
 *                           healthy jobs, record the failures)
 *         --watchdog-cycles N   per-job cycle budget (deterministic)
 *         --watchdog-wall S     per-job wall-clock budget, seconds
 *         --hang-timeout S      hung-shard monitor budget, seconds
 *
 *   cgpbench resume <dir> [options]
 *       Finish a killed run: re-run its campaign with the same run
 *       directory; completed jobs are loaded, not re-simulated, and
 *       corrupt artifacts are quarantined + re-run automatically.
 *
 *   cgpbench report <dir>
 *       Summarize a run directory without simulating anything: job
 *       counts, the same tables `run` prints (failed and pending
 *       cells show "-"), and any failed jobs with their causes.
 *
 *   cgpbench verify <dir>
 *       Audit a run directory's artifact integrity (CRC seals,
 *       fingerprints, orphaned tmp files, quarantine inventory)
 *       without modifying it.  Exit 0 iff everything checks out.
 *
 *   cgpbench chaos <campaign> --dir D [options]
 *       Kill/resume torture loop: repeatedly crash the campaign at
 *       injected fault points (and corrupt surviving artifacts),
 *       then assert a final clean resume reproduces the
 *       uninterrupted BENCH byte-for-byte.
 *         --cycles N        kill/resume cycles (default 25)
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "exp/artifact.hh"
#include "exp/campaigns.hh"
#include "exp/chaosloop.hh"
#include "exp/engine.hh"
#include "exp/rundir.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace
{

using namespace cgp;
using namespace cgp::exp;

struct Options
{
    std::vector<std::string> names;
    std::string dir;
    std::string artifactDir = ".";
    std::string artifactFile; // single campaign only
    bool seedSet = false;
    std::uint64_t seed = 0;
    bool fresh = false;
    unsigned chaosCycles = 25;
    /** --threads, --quiet, --retries, --on-fail, --watchdog-*,
     *  --hang-timeout; runDir is set per campaign. */
    EngineOptions engine;
};

int
usage()
{
    std::cerr
        << "usage: cgpbench list\n"
        << "       cgpbench run <campaign|figures|ablations|all>...\n"
        << "           [--threads N] [--dir D] [--seed S]\n"
        << "           [--artifact-dir D] [--artifact FILE]\n"
        << "           [--fresh] [--quiet] [--retries N]\n"
        << "           [--on-fail strict|degrade]\n"
        << "           [--watchdog-cycles N] [--watchdog-wall S]\n"
        << "           [--hang-timeout S]\n"
        << "       cgpbench resume <dir | name --dir D>\n"
        << "           [--threads N] [--quiet] [--retries N]\n"
        << "           [--on-fail strict|degrade] [--seed S]\n"
        << "       cgpbench report <dir | name --dir D>\n"
        << "       cgpbench verify <dir | name --dir D>\n"
        << "       cgpbench chaos <campaign> --dir D [--cycles N]\n"
        << "           [--threads N] [--seed S] [--retries N]\n";
    return 2;
}

/** Parse a decimal count: digits only (no sign, no trailing text),
 *  in the range of @p out. */
template <typename T>
bool
parseCount(const char *v, T &out)
{
    if (!std::isdigit(static_cast<unsigned char>(v[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (errno == ERANGE || *end != '\0' ||
        n > std::numeric_limits<T>::max())
        return false;
    out = static_cast<T>(n);
    return true;
}

/** Parse a non-negative, finite number of seconds. */
bool
parseSeconds(const char *v, double &out)
{
    if (!std::isdigit(static_cast<unsigned char>(v[0])) && v[0] != '.')
        return false;
    char *end = nullptr;
    const double x = std::strtod(v, &end);
    if (*end != '\0' || !std::isfinite(x))
        return false;
    out = x;
    return true;
}

bool
parseOptions(int argc, char **argv, int first, Options &opt)
{
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "cgpbench: " << a
                          << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        const auto bad = [&a](const char *v, const char *what) {
            std::cerr << "cgpbench: " << a << " needs " << what
                      << ", not '" << v << "'\n";
            return false;
        };
        const auto count = [&](auto &field) {
            const char *v = value();
            return v != nullptr &&
                (parseCount(v, field) ||
                 bad(v, "an unsigned integer"));
        };
        const auto seconds = [&](double &field) {
            const char *v = value();
            return v != nullptr &&
                (parseSeconds(v, field) ||
                 bad(v, "a non-negative number of seconds"));
        };
        const auto text = [&](std::string &field) {
            const char *v = value();
            if (v != nullptr)
                field = v;
            return v != nullptr;
        };
        bool ok = true;
        if (a == "--threads") {
            ok = count(opt.engine.threads);
        } else if (a == "--dir") {
            ok = text(opt.dir);
        } else if (a == "--seed") {
            ok = opt.seedSet = count(opt.seed);
        } else if (a == "--artifact-dir") {
            ok = text(opt.artifactDir);
        } else if (a == "--artifact") {
            ok = text(opt.artifactFile);
        } else if (a == "--retries") {
            ok = count(opt.engine.retries);
        } else if (a == "--on-fail") {
            std::string v;
            ok = text(v);
            try {
                if (ok)
                    opt.engine.onFail = failurePolicyFromString(v);
            } catch (const std::invalid_argument &e) {
                std::cerr << "cgpbench: " << e.what() << "\n";
                ok = false;
            }
        } else if (a == "--watchdog-cycles") {
            ok = count(opt.engine.watchdogCycles);
        } else if (a == "--watchdog-wall") {
            ok = seconds(opt.engine.watchdogWallSeconds);
        } else if (a == "--hang-timeout") {
            ok = seconds(opt.engine.hangTimeoutSeconds);
        } else if (a == "--cycles") {
            ok = count(opt.chaosCycles);
        } else if (a == "--fresh") {
            opt.fresh = true;
        } else if (a == "--quiet") {
            opt.engine.verbose = false;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "cgpbench: unknown option " << a << "\n";
            ok = false;
        } else {
            opt.names.push_back(a);
        }
        if (!ok)
            return false;
    }
    return true;
}

std::vector<std::string>
expandGroups(const std::vector<std::string> &names)
{
    std::vector<std::string> out;
    for (const std::string &n : names) {
        for (const std::string &c : campaignGroup(n)) {
            if (std::find(out.begin(), out.end(), c) == out.end())
                out.push_back(c);
        }
    }
    return out;
}

int
cmdList()
{
    TablePrinter t("Campaigns");
    t.setHeader({"name", "jobs", "title"});
    for (const std::string &name : campaignNames()) {
        const CampaignSpec spec = paperCampaign(name);
        t.addRow({name, std::to_string(expandJobs(spec).size()),
                  spec.title});
    }
    t.print(std::cout);
    std::cout << "\nGroups: figures, ablations, all "
                 "(smoke is only run by name)\n";
    return 0;
}

void
printFailures(const CampaignRun &run)
{
    if (run.failures.empty())
        return;
    std::cout << "\n";
    TablePrinter t("Failed jobs");
    t.setHeader({"job", "workload", "config", "kind", "attempts",
                 "error"});
    for (const JobFailure &f : run.failures) {
        t.addRow({std::to_string(f.index),
                  run.jobs[f.index].workload,
                  run.jobs[f.index].label, f.kind,
                  std::to_string(f.attempts), f.message});
    }
    t.print(std::cout);
}

/** Run one campaign in @p runDir (empty = in memory) and emit its
 *  tables + artifact; returns the number of terminally failed jobs. */
std::size_t
runOne(const CampaignSpec &spec, PaperWorkloadBank &bank,
       const Options &opt, const std::string &runDir)
{
    EngineOptions eopt = opt.engine;
    eopt.runDir = runDir;
    const CampaignRun run = runCampaign(spec, bank, eopt);

    printCampaign(run, spec.report, std::cout);
    printFailures(run);
    const std::string artifact = !opt.artifactFile.empty()
        ? opt.artifactFile
        : opt.artifactDir + "/BENCH_" + spec.name + ".json";
    writeBenchJson(artifact, run);
    std::cout << "\n[" << spec.name << "] " << run.executed
              << " jobs run, " << run.skipped << " resumed, "
              << run.failures.size() << " failed, "
              << run.threadsUsed << " threads ("
              << run.steals << " steals), "
              << TablePrinter::fixed(run.wallSeconds, 1)
              << "s; artifact " << artifact << "\n";
    if (run.quarantined != 0) {
        std::cout << "[" << spec.name << "] quarantined "
                  << run.quarantined
                  << " corrupt artifact(s); see "
                  << eopt.runDir << "/quarantine\n";
    }
    std::cout << "\n";
    return run.failures.size();
}

int
cmdRun(const Options &opt)
{
    if (opt.names.empty()) {
        std::cerr << "cgpbench run: no campaigns given\n";
        return usage();
    }
    const std::vector<std::string> names = expandGroups(opt.names);
    if (!opt.artifactFile.empty() && names.size() != 1) {
        std::cerr << "cgpbench run: --artifact needs exactly one "
                     "campaign\n";
        return 2;
    }
    PaperWorkloadBank bank;
    std::size_t failed = 0;
    for (const std::string &name : names) {
        CampaignSpec spec = paperCampaign(name);
        if (opt.seedSet)
            spec.seed = opt.seed;
        const std::string runDir =
            opt.dir.empty() ? "" : opt.dir + "/" + name;
        if (opt.fresh && !runDir.empty())
            std::filesystem::remove_all(runDir);
        failed += runOne(spec, bank, opt, runDir);
    }
    // A degraded campaign completed but is not healthy; make the
    // exit code say so for CI.
    return failed == 0 ? 0 : 3;
}

/** resume/report/verify accept either a literal run-dir path or a
 *  campaign name plus --dir, mirroring how `run` lays out
 *  `<dir>/<campaign>`. */
std::string
resolveRunDir(const Options &opt)
{
    if (opt.dir.empty())
        return opt.names[0];
    return opt.dir + "/" + opt.names[0];
}

int
cmdResume(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench resume: need exactly one run dir\n";
        return usage();
    }
    const std::string dir = resolveRunDir(opt);

    // The manifest normally tells us which campaign the dir holds.
    // If it is corrupt or torn, fall back to the directory name
    // (run dirs are laid out as <dir>/<campaign>): the engine's
    // prepare step then quarantines the bad manifest, rebuilds it,
    // and keeps every job file whose seal still matches.
    std::string campaign;
    std::uint64_t seed = 0;
    bool seedKnown = false;
    try {
        const LoadedRun loaded = loadRunDir(dir);
        campaign = loaded.campaign;
        seed = loaded.seed;
        seedKnown = true;
    } catch (const std::exception &e) {
        campaign = std::filesystem::path(dir).filename().string();
        std::cerr << "cgpbench resume: manifest unreadable ("
                  << e.what() << "); recovering campaign \""
                  << campaign << "\" from the directory name\n";
    }

    CampaignSpec spec = paperCampaign(campaign);
    if (seedKnown)
        spec.seed = seed;
    if (opt.seedSet)
        spec.seed = opt.seed;

    PaperWorkloadBank bank;
    return runOne(spec, bank, opt, dir) == 0 ? 0 : 3;
}

/** The registry's report layout for @p campaign; the plain one for
 *  a run dir of a campaign the registry does not know. */
ReportSpec
reportOf(const std::string &campaign)
{
    try {
        return paperCampaign(campaign).report;
    } catch (const std::invalid_argument &) {
        return {};
    }
}

int
cmdReport(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench report: need exactly one run dir\n";
        return usage();
    }
    const std::string dir = resolveRunDir(opt);
    LoadedRun run;
    try {
        run = loadRunDir(dir);
    } catch (const std::exception &e) {
        std::cerr << "cgpbench report: " << e.what()
                  << "\nAudit with: cgpbench verify " << dir
                  << "\nRecover with: cgpbench resume " << dir
                  << "\n";
        return 1;
    }

    std::cout << "Campaign:    " << run.campaign << " — "
              << run.title << "\n"
              << "Fingerprint: " << run.fingerprint << "\n"
              << "Seed:        " << run.seed << "\n"
              << "Jobs:        " << run.results.size() << "/"
              << run.jobs.size() << " complete, "
              << run.failures.size() << " failed\n\n";
    const CampaignRun full = run.toRun();
    printCampaign(full, reportOf(run.campaign), std::cout);
    printFailures(full);
    if (run.results.size() < run.jobs.size())
        std::cout << "\nResume with: cgpbench resume " << dir << "\n";
    return 0;
}

int
cmdVerify(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench verify: need exactly one run dir\n";
        return usage();
    }
    const std::string dir = resolveRunDir(opt);
    if (!std::filesystem::is_directory(dir)) {
        std::cerr << "cgpbench verify: no such run dir: " << dir
                  << "\n";
        return 2;
    }
    const VerifyReport report = verifyRunDir(dir);

    std::cout << "Run dir:     " << dir << "\n";
    if (report.manifestOk) {
        std::cout << "Campaign:    " << report.campaign << "\n"
                  << "Fingerprint: " << report.fingerprint << "\n"
                  << "Jobs:        " << report.jobsTotal << " ("
                  << report.jobsDone << " done, "
                  << report.jobsPending << " pending, "
                  << report.jobsFailed << " failed)\n"
                  << "Job files:   " << report.jobFilesOk
                  << " verified OK\n";
    } else {
        std::cout << "Manifest:    INVALID\n";
    }
    if (!report.quarantineEntries.empty()) {
        std::cout << "Quarantine:  "
                  << report.quarantineEntries.size()
                  << " artifact(s)\n";
        for (const std::string &q : report.quarantineEntries)
            std::cout << "    " << q << "\n";
    }
    if (!report.issues.empty()) {
        std::cout << "\n";
        TablePrinter t("Integrity issues");
        t.setHeader({"artifact", "problem"});
        for (const VerifyIssue &i : report.issues)
            t.addRow({i.file, i.problem});
        t.print(std::cout);
        std::cout << "\nA resume (cgpbench resume " << dir
                  << ") quarantines these and re-runs the "
                     "affected jobs.\n";
    }
    std::cout << (report.ok() ? "\nOK\n" : "\nNOT OK\n");
    return report.ok() ? 0 : 1;
}

int
cmdChaos(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench chaos: need exactly one campaign\n";
        return usage();
    }
    if (opt.dir.empty()) {
        std::cerr << "cgpbench chaos: --dir is required (the loop "
                     "kills and resumes a persistent run dir)\n";
        return 2;
    }
    CampaignSpec spec = paperCampaign(opt.names[0]);
    if (opt.seedSet)
        spec.seed = opt.seed;

    ChaosLoopConfig config;
    config.cycles = opt.chaosCycles;
    config.threads = opt.engine.threads != 0 ? opt.engine.threads : 2;
    config.dir = opt.dir + "/" + spec.name + "-chaos";
    config.retries = opt.engine.retries != 0 ? opt.engine.retries : 2;
    config.verbose = opt.engine.verbose;
    if (opt.seedSet)
        config.seed = opt.seed;

    PaperWorkloadBank bank;
    ChaosLoopHarness harness(spec, bank, config);
    const ChaosLoopResult result = harness.run();

    std::cout << "Chaos loop:  " << spec.name << "\n"
              << "Cycles:      " << result.cycles << " ("
              << result.crashes << " crashes, "
              << result.cleanRuns << " clean)\n"
              << "Corruptions: " << result.corruptions << "\n"
              << "Quarantined: " << result.quarantined << "\n"
              << "Jobs run:    " << result.executedJobs << "\n"
              << "Verdict:     "
              << (result.identical
                      ? "BENCH byte-identical to uninterrupted run"
                      : "MISMATCH: " + result.mismatch)
              << "\n";
    return result.ok() ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    Options opt;
    if (!parseOptions(argc, argv, 2, opt))
        return 2;

    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "run")
            return cmdRun(opt);
        if (cmd == "resume")
            return cmdResume(opt);
        if (cmd == "report")
            return cmdReport(opt);
        if (cmd == "verify")
            return cmdVerify(opt);
        if (cmd == "chaos")
            return cmdChaos(opt);
    } catch (const std::exception &e) {
        std::cerr << "cgpbench: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "cgpbench: unknown command '" << cmd << "'\n";
    return usage();
}
