/**
 * @file
 * CoreTraceSource: the per-core TraceSource that turns scheduler
 * decisions into the event stream driving one core's expander.
 *
 * At each bind it emits a Switch event (the expander keys per-session
 * call stacks off the payload) followed by the OS scheduler stub,
 * then streams the bound session's query events, metering the
 * scheduling quantum with eventCost, like the offline interleaver
 * (Work = payload, Switch/Hint = 0, else 1).  Quantum expiry re-queues the
 * session on this core; query completion reports to the scheduler
 * (fetch-side completion — see DESIGN.md §10).  With no runnable
 * session the source reports Dry (the core idles the cycle), and End
 * once every session has retired.
 */

#ifndef CGP_SERVER_SOURCE_HH
#define CGP_SERVER_SOURCE_HH

#include <cstdint>
#include <vector>

#include "server/scheduler.hh"
#include "trace/events.hh"
#include "trace/source.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cgp::server
{

class CoreTraceSource final : public TraceSource
{
  public:
    /**
     * @param library Per-query recorded traces (Zipf domain).
     * @param switchStub Events replayed after every Switch (may be
     *        null: no scheduler stub).
     */
    CoreTraceSource(AdmissionScheduler &sched,
                    const std::vector<const TraceBuffer *> &library,
                    const TraceBuffer *switchStub,
                    const ServerConfig &config, unsigned coreId);

    /** The server sets the global cycle before stepping the core
     *  (completion/latency timestamps come from here). */
    void setNow(Cycle now) { now_ = now; }

    Pull next(TraceEvent &out) override;

    std::uint64_t binds() const { return binds_; }
    std::uint64_t queriesCompleted() const { return queries_; }

  private:
    AdmissionScheduler &sched_;
    const std::vector<const TraceBuffer *> &library_;
    const TraceBuffer *stub_;
    const std::uint64_t quantumInstrs_;
    const unsigned coreId_;
    /** Quantum jitter stream, independent per core. */
    Rng rng_;

    Cycle now_ = 0;
    ClientSession *bound_ = nullptr;
    bool pendingSwitch_ = false;
    std::size_t stubCursor_ = 0;
    std::uint64_t quantumLeft_ = 0;

    std::uint64_t binds_ = 0;
    std::uint64_t queries_ = 0;
};

} // namespace cgp::server

#endif // CGP_SERVER_SOURCE_HH
