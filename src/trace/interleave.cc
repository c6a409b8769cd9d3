#include "trace/interleave.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/rng.hh"

namespace cgp
{

TraceBuffer
interleaveTraces(const std::vector<const TraceBuffer *> &threads,
                 std::uint64_t quantumInstrs,
                 const TraceBuffer *switchStub)
{
    cgp_assert(!threads.empty(), "no threads to interleave");
    cgp_assert(quantumInstrs > 0, "zero scheduling quantum");

    TraceBuffer out;
    Rng rng(0x5c4ed);

    std::vector<std::size_t> cursor(threads.size(), 0);
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        cgp_assert(threads[i] != nullptr, "null thread trace");
        if (!threads[i]->empty())
            runnable.push_back(i);
    }

    std::size_t last = ~std::size_t{0};
    while (!runnable.empty()) {
        // Event-driven servers do not schedule in lockstep: pick a
        // runnable thread pseudo-randomly (avoiding back-to-back
        // re-selection when possible) and give it a quantum whose
        // length varies, the way I/O waits and lock hand-offs vary.
        std::size_t pick = runnable[rng.nextBelow(runnable.size())];
        if (runnable.size() > 1 && pick == last)
            pick = runnable[rng.nextBelow(runnable.size())];
        last = pick;

        out.append(TraceEvent::make(EventKind::Switch, pick));
        if (switchStub != nullptr) {
            for (std::size_t i = 0; i < switchStub->size(); ++i)
                out.append(switchStub->at(i));
        }

        const std::uint64_t quantum = quantumInstrs / 2 +
            rng.nextBelow(quantumInstrs);
        std::uint64_t used = 0;
        const TraceBuffer &t = *threads[pick];
        while (cursor[pick] < t.size() && used < quantum) {
            const TraceEvent e = t.at(cursor[pick]++);
            used += eventCost(e);
            out.append(e);
        }
        if (cursor[pick] >= t.size()) {
            runnable.erase(std::find(runnable.begin(),
                                     runnable.end(), pick));
        }
    }
    return out;
}

} // namespace cgp
