/**
 * @file
 * Queueing and per-core statistics of a server-model run, carried
 * inside SimResult (emitted to JSON only when the server model ran,
 * so legacy results stay byte-identical).
 */

#ifndef CGP_SERVER_STATS_HH
#define CGP_SERVER_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cgp::server
{

struct ServerCoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t icacheAccesses = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t dcacheMisses = 0;
    /** L2-port requests issued by this core (demand + prefetch). */
    std::uint64_t busLines = 0;
    /** Cycles this core's requests queued behind the shared-port
     *  backlog — the cross-core contention signal. */
    std::uint64_t portWaitCycles = 0;
    std::uint64_t queries = 0;
    std::uint64_t binds = 0;

    double
    utilization() const
    {
        return cycles == 0
            ? 0.0
            : 1.0
                - static_cast<double>(idleCycles)
                    / static_cast<double>(cycles);
    }

    bool operator==(const ServerCoreStats &) const = default;

    template <class Self, class F>
    static constexpr void
    fields(Self &self, F &&f)
    {
        f("cycles", self.cycles);
        f("instrs", self.instrs);
        f("idle_cycles", self.idleCycles);
        f("icache_accesses", self.icacheAccesses);
        f("icache_misses", self.icacheMisses);
        f("dcache_accesses", self.dcacheAccesses);
        f("dcache_misses", self.dcacheMisses);
        f("bus_lines", self.busLines);
        f("port_wait_cycles", self.portWaitCycles);
        f("queries", self.queries);
        f("binds", self.binds);
    }
};

struct ServerStats
{
    std::uint64_t cores = 0;
    std::uint64_t sessions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t queriesServed = 0;
    std::uint64_t binds = 0;
    /** Session query latency percentiles in cycles (submit →
     *  completion, including queueing and descheduled time). */
    std::uint64_t latencyP50 = 0;
    std::uint64_t latencyP95 = 0;
    std::uint64_t latencyP99 = 0;
    std::uint64_t portWaitCycles = 0;
    std::vector<ServerCoreStats> perCore;

    /** Throughput in queries per million cycles (multiply by the
     *  clock in MHz for queries/sec). */
    double
    queriesPerMcycle() const
    {
        return cycles == 0
            ? 0.0
            : static_cast<double>(queriesServed) * 1e6
                / static_cast<double>(cycles);
    }

    bool operator==(const ServerStats &) const = default;

    template <class Self, class F>
    static constexpr void
    fields(Self &self, F &&f)
    {
        f("cores", self.cores);
        f("sessions", self.sessions);
        f("cycles", self.cycles);
        f("queries_served", self.queriesServed);
        f("binds", self.binds);
        f("latency_p50", self.latencyP50);
        f("latency_p95", self.latencyP95);
        f("latency_p99", self.latencyP99);
        f("port_wait_cycles", self.portWaitCycles);
        f("per_core", self.perCore);
    }
};

/**
 * Nearest-rank percentile of an ascending-sorted sample.  Total over
 * its whole input domain: an empty sample yields 0, @p q is clamped
 * to [0, 100] (q = 0 selects the minimum, q = 100 the maximum), and
 * a non-finite @p q is treated as 0 rather than fed to the
 * float-to-integer cast (undefined behaviour for NaN).
 */
inline std::uint64_t
percentile(const std::vector<std::uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    if (!std::isfinite(q))
        q = 0.0;
    q = std::clamp(q, 0.0, 100.0);
    const double rank =
        std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::max(rank, 1.0)) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace cgp::server

#endif // CGP_SERVER_STATS_HH
