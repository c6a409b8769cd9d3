#include "cpu/core.hh"

#include <algorithm>
#include <chrono>
#include <string>

#include "util/logging.hh"
#include "util/watchdog.hh"

namespace cgp
{

Core::Core(InstructionExpander &stream, MemoryHierarchy &mem,
           InstrPrefetcher *prefetcher, const CoreConfig &config,
           DataPrefetcher *dprefetcher)
    : stream_(stream), mem_(mem), prefetcher_(prefetcher),
      dprefetcher_(dprefetcher), config_(config),
      branch_(config.branch), fetchQueue_(config.fetchQueueSize),
      rob_(config.rsSize), stats_("core")
{
    waiting_.reserve(config.rsSize);
    stats_.addCounter("committed_instrs", &committed_,
                      "instructions committed");
    stats_.addCounter("fetch_icache_stall_cycles",
                      &fetchIcacheStallCycles_,
                      "cycles fetch waited on an I-cache fill");
    stats_.addCounter("fetch_branch_stall_cycles",
                      &fetchBranchStallCycles_,
                      "cycles fetch waited on a mispredict resolve");
    stats_.addCounter("fetch_queue_full_cycles", &fetchQueueFullCycles_,
                      "cycles fetch stopped on a full fetch queue");
    stats_.addCounter("rob_full_events", &robFullEvents_,
                      "dispatch attempts blocked by full window");
    stats_.addCounter("idle_cycles", &idleCycles_,
                      "cycles with no fetch, issue or commit activity");
    stats_.addFormula(
        "ipc", [this]() { return ipc(); },
        "committed instructions per cycle");
    stats_.addChild(&branch_.stats());
}

Core::MicroOp
Core::decode(const DynInst &inst, std::uint64_t seq)
{
    MicroOp op;
    op.pc = inst.pc;
    op.memAddr = inst.memAddr;
    op.seq = seq;
    op.kind = inst.kind;

    const std::uint64_t hs = (inst.pc >> 2) * 0xc2b2ae3d27d4eb4full;
    op.src1 = static_cast<std::uint8_t>((hs >> 11) % numRegs);
    op.src2 = static_cast<std::uint8_t>((hs >> 23) % numRegs);

    switch (inst.kind) {
      case InstKind::Store:
      case InstKind::Jump:
      case InstKind::CondBranch:
      case InstKind::Return:
        op.dest = 0; // r0: always-ready sink
        break;
      default: {
        const std::uint64_t hd = (inst.pc >> 2) * 0x9e3779b97f4a7c15ull;
        op.dest = static_cast<std::uint8_t>(
            1 + (hd >> 7) % (numRegs - 1));
        break;
      }
    }
    return op;
}

void
Core::doCommit()
{
    unsigned done = 0;
    while (done < config_.commitWidth && !rob_.empty()) {
        const MicroOp &head = rob_.front();
        if (!head.issued || head.doneCycle > now_)
            break;
        if (head.kind == InstKind::Load ||
            head.kind == InstKind::Store) {
            cgp_assert(lsqUsed_ > 0, "LSQ underflow");
            --lsqUsed_;
        }
        ++committed_;
        rob_.pop_front();
        ++done;
    }
}

bool
Core::claimUnit(InstKind kind, UnitBudget &units)
{
    unsigned *unit = nullptr;
    switch (kind) {
      case InstKind::IntOp:
      case InstKind::Jump:
      case InstKind::CondBranch:
      case InstKind::Call:
      case InstKind::Return:
        unit = &units.alus;
        break;
      case InstKind::MulOp:
        unit = &units.muls;
        break;
      case InstKind::Load:
      case InstKind::Store:
        unit = &units.ports;
        break;
    }
    if (*unit == 0)
        return false;
    --*unit;
    return true;
}

Cycle
Core::execute(const MicroOp &op)
{
    switch (op.kind) {
      case InstKind::MulOp:
        return now_ + config_.mulLatency;
      case InstKind::Load:
      case InstKind::Store: {
        const bool is_store = op.kind == InstKind::Store;
        const auto res = mem_.l1d().access(
            op.memAddr, now_,
            is_store ? AccessSource::DemandStore
                     : AccessSource::DemandLoad,
            is_store);
        if (dprefetcher_ != nullptr) {
            const bool miss = !res.hit && !res.delayedHit;
            dprefetcher_->onAccess(op.pc, op.memAddr, is_store, miss,
                                   now_);
            if (miss)
                dprefetcher_->onMiss(op.pc, op.memAddr, now_);
        }
        // A store retires via the store buffer.
        return is_store ? now_ + 1 : res.readyCycle;
      }
      default:
        return now_ + 1;
    }
}

void
Core::doIssue()
{
    unsigned issued = 0;
    UnitBudget units{config_.intAlus, config_.multipliers,
                     config_.memPorts};

    // Walk the unissued slots oldest first, compacting the list in
    // place: an op that is not ready or finds its unit taken keeps
    // its position, exactly as the age-ordered scan would skip it.
    const std::size_t n = waiting_.size();
    std::size_t i = 0;
    std::size_t kept = 0;
    for (; i < n && issued < config_.issueWidth; ++i) {
        const unsigned slot = waiting_[i];
        MicroOp &op = rob_[slot];
        if (std::max(regReady_[op.src1], regReady_[op.src2]) > now_ ||
            !claimUnit(op.kind, units)) {
            waiting_[kept++] = slot;
            continue;
        }

        const Cycle done = execute(op);
        op.issued = true;
        op.doneCycle = done;
        ++issued;

        if (op.dest != 0)
            regReady_[op.dest] = std::max(regReady_[op.dest], done);

        // A blocking mispredict resolves when it executes; fetch
        // restarts after the redirect bubble.
        if (blockedOnSeq_ == op.seq) {
            blockedOnSeq_ = 0;
            fetchResumeCycle_ = std::max(fetchResumeCycle_,
                                         done + config_.redirectPenalty);
        }
    }
    for (; i < n; ++i)
        waiting_[kept++] = waiting_[i];
    waiting_.resize(kept);
}

void
Core::doDispatch()
{
    unsigned moved = 0;
    while (moved < config_.dispatchWidth && !fetchQueue_.empty()) {
        if (rob_.size() >= config_.rsSize) {
            ++robFullEvents_;
            break;
        }
        const MicroOp &op = fetchQueue_.front();
        const bool is_mem = op.kind == InstKind::Load ||
            op.kind == InstKind::Store;
        if (is_mem && lsqUsed_ >= config_.lsqSize)
            break;
        if (is_mem)
            ++lsqUsed_;
        waiting_.push_back(rob_.push_back(op));
        fetchQueue_.pop_front();
        ++moved;
    }
}

bool
Core::predictControl(const DynInst &inst)
{
    BranchUnit::Prediction p;
    bool mispredicted = false;

    switch (inst.kind) {
      case InstKind::CondBranch: {
        p = branch_.predictConditional(inst.pc, inst.taken,
                                       inst.target);
        const bool dir_wrong = p.taken != inst.taken;
        const bool tgt_wrong = inst.taken && p.taken &&
            (!p.targetKnown || p.target != inst.target);
        mispredicted = dir_wrong || tgt_wrong;
        break;
      }
      case InstKind::Jump:
        p = branch_.predictJump(inst.pc, inst.target);
        mispredicted = !p.targetKnown || p.target != inst.target;
        break;
      case InstKind::Call:
        p = branch_.predictCall(inst.pc, inst.target, inst.funcStart);
        mispredicted = !p.targetKnown || p.target != inst.target;
        // CGP's call accesses use the *predicted* target (§3.2); no
        // prediction, no access.
        if (prefetcher_ != nullptr && p.targetKnown) {
            prefetcher_->onCall(p.target, inst.funcStart, now_);
        }
        break;
      case InstKind::Return:
        p = branch_.predictReturn(inst.pc, inst.target);
        mispredicted = !p.targetKnown || p.target != inst.target;
        // The modified RAS supplies the returnee's start (§3.2).
        if (prefetcher_ != nullptr) {
            prefetcher_->onReturn(p.callerFuncStart, inst.funcStart,
                                  now_);
        }
        break;
      default:
        cgp_panic("predictControl on non-control instruction");
    }
    return mispredicted;
}

void
Core::doFetch()
{
    // Sampling drain: checked before any stall accounting so a
    // suspended fetch stage leaves every counter untouched.
    if (fetchSuspended_)
        return;
    if (blockedOnSeq_ != 0) {
        ++fetchBranchStallCycles_;
        return;
    }
    if (now_ < fetchResumeCycle_) {
        ++fetchIcacheStallCycles_;
        return;
    }

    unsigned fetched = 0;
    while (fetched < config_.fetchWidth) {
        if (fetchQueue_.size() >= config_.fetchQueueSize) {
            if (fetched == 0)
                ++fetchQueueFullCycles_;
            return;
        }

        const DynInst *next = peek();
        if (next == nullptr)
            return;
        const DynInst &inst = *next;

        // Per-line I-cache access on line change.
        const Addr line = mem_.l1i().lineAlign(inst.pc);
        if (!config_.perfectICache && line != lastFetchLine_) {
            const auto res = mem_.l1i().access(
                line, now_, AccessSource::DemandFetch, false);
            lastFetchLine_ = line;
            if (prefetcher_ != nullptr)
                prefetcher_->onFetchLine(line, now_);
            if (!res.hit) {
                // Stall until the fill arrives; the instruction is
                // consumed when fetch resumes.
                fetchResumeCycle_ = res.readyCycle;
                ++fetchIcacheStallCycles_;
                return;
            }
        }

        stream_.pop();

        // Semantic hints ride the instruction stream and are
        // dispatched at fetch — well before the consuming load
        // issues, giving the prefetch its lead time.
        if (dprefetcher_ != nullptr && inst.hintAddr != invalidAddr) {
            dprefetcher_->onHint(
                static_cast<DataHintKind>(inst.hintKind),
                inst.hintAddr, now_);
        }

        const std::uint64_t seq = ++seqGen_;
        bool end_group = false;
        if (isControl(inst.kind)) {
            const bool mispredicted = predictControl(inst);
            if (mispredicted) {
                blockedOnSeq_ = seq;
                end_group = true;
            } else if (inst.taken) {
                // Can't fetch past a predicted-taken transfer in the
                // same cycle.
                end_group = true;
            }
        }

        fetchQueue_.push_back(decode(inst, seq));
        ++fetched;
        if (end_group)
            return;
    }
}

void
Core::beginRun()
{
    wallBudget_ = config_.maxWallSeconds > 0.0;
    wallStart_ = std::chrono::steady_clock::now();
}

std::uint64_t
Core::fastForward(std::uint64_t max_instrs, bool warm_state)
{
    if (warm_state) {
        // Freeze every statistic while predictive state trains:
        // caches suppress prefetch issue, the branch unit and CGHC
        // stop counting, and demand traffic goes through the
        // counter-free warm path.
        mem_.setWarming(true);
        branch_.setWarming(true);
        if (prefetcher_ != nullptr)
            prefetcher_->setWarming(true);
    }

    std::uint64_t done = 0;
    const DynInst *next = nullptr;
    while (done < max_instrs && (next = peek()) != nullptr) {
        stream_.pop();
        const DynInst &inst = *next;
        if (warm_state) {
            const Addr line = mem_.l1i().lineAlign(inst.pc);
            if (!config_.perfectICache && line != lastFetchLine_) {
                mem_.l1i().warmAccess(line, false);
                lastFetchLine_ = line;
                if (prefetcher_ != nullptr)
                    prefetcher_->onFetchLine(line, now_);
            }
            if (dprefetcher_ != nullptr &&
                inst.hintAddr != invalidAddr) {
                dprefetcher_->onHint(
                    static_cast<DataHintKind>(inst.hintKind),
                    inst.hintAddr, now_);
            }
            if (isControl(inst.kind)) {
                // Mispredictions cost nothing here; the branch
                // structures and the CGHC still train.
                (void)predictControl(inst);
            }
            if (inst.kind == InstKind::Load ||
                inst.kind == InstKind::Store) {
                const bool is_write = inst.kind == InstKind::Store;
                const bool miss =
                    mem_.l1d().warmAccess(inst.memAddr, is_write);
                if (dprefetcher_ != nullptr) {
                    dprefetcher_->onAccess(inst.pc, inst.memAddr,
                                           is_write, miss, now_);
                    if (miss) {
                        dprefetcher_->onMiss(inst.pc, inst.memAddr,
                                             now_);
                    }
                }
            }
        }
        ++done;
        ++warmedInstrs_;
    }

    if (warm_state) {
        mem_.setWarming(false);
        branch_.setWarming(false);
        if (prefetcher_ != nullptr)
            prefetcher_->setWarming(false);
    }
    return done;
}

void
Core::stepCycle()
{
    if (finished_)
        return;
    if (config_.maxInstrs != 0 &&
        committed_.value() >= config_.maxInstrs) {
        finished_ = true;
        return;
    }
    // Watchdog: the cycle budget is deterministic (a livelocked
    // config times out at the same cycle everywhere); the
    // wall-clock budget and the cancel token are checked on a
    // coarse stride so the hot loop stays cheap.
    if (config_.maxCycles != 0 && now_ >= config_.maxCycles) {
        throw TimeoutError(
            "simulation exceeded cycle budget of " +
            std::to_string(config_.maxCycles) + " cycles");
    }
    if ((now_ & 0xFFFu) == 0) {
        if (cancelRequested()) {
            throw CancelledError(
                "simulation cancelled by watchdog at cycle " +
                std::to_string(now_));
        }
        if (wallBudget_ &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallStart_)
                    .count() > config_.maxWallSeconds) {
            throw TimeoutError(
                "simulation exceeded wall-clock budget of " +
                std::to_string(config_.maxWallSeconds) +
                " seconds");
        }
    }
    ++now_;
    mem_.tick(now_);

    const auto before = committed_.value();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();

    // Demand priority on the shared L2 port: only after every
    // demand access of this cycle has claimed its slot may the
    // arbiter issue deferred prefetches into what is left.
    mem_.drainDeferred(now_);

    if (committed_.value() == before && fetchQueue_.empty() &&
        rob_.empty()) {
        if (peek() == nullptr) {
            if (streamDone_)
                finished_ = true;
            else
                ++idleCycles_; // dry source: the core waits
        } else {
            ++idleCycles_;
        }
    }
}

void
Core::run()
{
    beginRun();
    while (!finished_)
        stepCycle();
    mem_.finalize();
}

} // namespace cgp
