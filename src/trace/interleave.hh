/**
 * @file
 * Concurrent-query modeling: the paper runs each query as a thread in
 * the database server.  We record each query's trace separately and
 * interleave them round-robin with an OS-scheduler stub at each
 * context switch, reproducing the instruction-cache interference that
 * concurrency causes (the paper's §2 cites frequent context switches
 * as a driver of DBMS I-cache misses).  The merged trace is what a
 * single-core run replays; the session-driven alternative is the
 * server model's admission mode (src/server).
 */

#ifndef CGP_TRACE_INTERLEAVE_HH
#define CGP_TRACE_INTERLEAVE_HH

#include <cstdint>
#include <vector>

#include "trace/events.hh"

namespace cgp
{

/**
 * Merge per-thread traces into one schedule.  Thread i's events are
 * consumed in order; switches happen at event boundaries once the
 * jittered quantum (q/2 + rng.nextBelow(q), metered by eventCost) is
 * exhausted.  A Switch event (payload = thread id) is emitted before
 * each thread's slice, followed by the pre-recorded scheduler stub
 * (@p switchStub, may be null), which runs on the incoming thread's
 * stack and costs no quantum.
 */
TraceBuffer interleaveTraces(
    const std::vector<const TraceBuffer *> &threads,
    std::uint64_t quantumInstrs, const TraceBuffer *switchStub);

} // namespace cgp

#endif // CGP_TRACE_INTERLEAVE_HH
