#include "server/source.hh"

#include "util/logging.hh"

namespace cgp::server
{

CoreTraceSource::CoreTraceSource(
    AdmissionScheduler &sched,
    const std::vector<const TraceBuffer *> &library,
    const TraceBuffer *switchStub, const ServerConfig &config,
    unsigned coreId)
    : sched_(sched), library_(library), stub_(switchStub),
      quantumInstrs_(config.quantumInstrs), coreId_(coreId),
      rng_(AdmissionScheduler::sessionSeed(
          config.seed ^ 0xc0de5eedull, coreId))
{
    cgp_assert(quantumInstrs_ > 0, "zero scheduling quantum");
    for (const TraceBuffer *q : library_)
        cgp_assert(q != nullptr && !q->empty(), "bad query trace");
}

TraceSource::Pull
CoreTraceSource::next(TraceEvent &out)
{
    for (;;) {
        if (bound_ != nullptr) {
            if (pendingSwitch_) {
                pendingSwitch_ = false;
                out = TraceEvent::make(EventKind::Switch, bound_->id);
                return Pull::Event;
            }
            if (stub_ != nullptr && stubCursor_ < stub_->size()) {
                // Scheduler-stub events run on the incoming
                // session's stack and do not consume its quantum
                // (same accounting as the offline interleaver).
                out = stub_->at(stubCursor_++);
                return Pull::Event;
            }
            cgp_assert(bound_->queryIdx < library_.size(),
                       "query index out of range");
            const TraceBuffer &q = *library_[bound_->queryIdx];
            if (bound_->cursor >= q.size()) {
                // Fetch-side completion: the last event has been
                // handed to the expander.
                sched_.onQueryComplete(*bound_, now_);
                ++queries_;
                bound_ = nullptr;
                continue;
            }
            if (quantumLeft_ == 0) {
                sched_.requeue(*bound_, coreId_);
                bound_ = nullptr;
                continue;
            }
            const TraceEvent e = q.at(bound_->cursor++);
            const std::uint64_t cost = eventCost(e);
            quantumLeft_ -= cost < quantumLeft_ ? cost : quantumLeft_;
            out = e;
            return Pull::Event;
        }

        ClientSession *s = sched_.dequeue(now_, coreId_);
        if (s == nullptr)
            return sched_.allRetired() ? Pull::End : Pull::Dry;
        bound_ = s;
        ++binds_;
        pendingSwitch_ = true;
        stubCursor_ = 0;
        // Jittered quantum, like the offline interleaver's: I/O waits
        // and lock hand-offs make real slice lengths vary.
        quantumLeft_ = quantumInstrs_ / 2 +
            rng_.nextBelow(quantumInstrs_);
    }
}

} // namespace cgp::server
