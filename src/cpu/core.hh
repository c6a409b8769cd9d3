/**
 * @file
 * Trace-driven, cycle-level out-of-order core in the spirit of
 * SimpleScalar's sim-outorder, configured per paper Table 1:
 *
 *   fetch/decode/issue width 4; instruction-fetch queue and
 *   load/store queue of 16; 64 reservation stations; 4 integer
 *   adders + 2 multipliers; 4 CPU-side memory ports; 2-level
 *   2K-entry branch predictor.
 *
 * Fetch is fully modeled (per-line I-cache accesses, at most one
 * taken control transfer per cycle, queue backpressure, stall until
 * fill on an I-miss, redirect bubble on mispredicts) because the
 * phenomenon under study — instruction fetch stalls — lives there.
 * The back end models dependence chains with a register scoreboard
 * keyed by hashed architectural registers, FU contention, and D-cache
 * latency through the shared L2 FIFO.  Wrong-path fetch is
 * approximated by halting fetch from the mispredicted branch until
 * it resolves plus a redirect penalty (standard for trace-driven
 * simulation; see DESIGN.md §4.3).
 */

#ifndef CGP_CPU_CORE_HH
#define CGP_CPU_CORE_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "dprefetch/dprefetcher.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "trace/dyninst.hh"
#include "trace/expand.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace cgp
{

struct CoreConfig
{
    unsigned fetchWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;

    unsigned fetchQueueSize = 16;
    unsigned lsqSize = 16;
    unsigned rsSize = 64;

    unsigned intAlus = 4;
    unsigned multipliers = 2;
    unsigned memPorts = 4;
    Cycle mulLatency = 3;

    /** Front-end refill bubble after a resolved mispredict. */
    Cycle redirectPenalty = 2;

    /** All I-fetches hit in one cycle (perf-Icache bars). */
    bool perfectICache = false;

    /** Stop after this many committed instructions (0 = whole trace). */
    std::uint64_t maxInstrs = 0;

    /**
     * Watchdog cycle budget (0 = none).  Unlike maxInstrs — a normal
     * early stop that still yields a result — exceeding this budget
     * throws TimeoutError: the run is classified as timed out, its
     * partial numbers are discarded, and the campaign engine records
     * the job as failed instead of persisting a truncated result.
     */
    std::uint64_t maxCycles = 0;

    /** Watchdog wall-clock budget in seconds (0 = none); same
     *  classification as maxCycles but against real time. */
    double maxWallSeconds = 0.0;

    BranchPredictorConfig branch;
};

class Core
{
  public:
    /**
     * @param stream Instruction source (already bound to a layout).
     * @param mem The Table 1 memory hierarchy.
     * @param prefetcher Active instruction prefetcher (may be null).
     * @param dprefetcher Active data prefetcher (may be null): fed
     *        demand accesses/misses from the load/store issue path
     *        and semantic hints carried by the instruction stream.
     */
    Core(InstructionExpander &stream, MemoryHierarchy &mem,
         InstrPrefetcher *prefetcher, const CoreConfig &config,
         DataPrefetcher *dprefetcher = nullptr);

    /** Run the trace to completion (or maxInstrs). */
    void run();

    /// @{ Incremental stepping (the multi-core server drives cores
    /// cycle by cycle; run() is beginRun + stepCycle to completion).
    /** Arm the wall-clock watchdog; call once before stepCycle. */
    void beginRun();
    /**
     * Simulate one cycle (watchdog checks included).  A core whose
     * stream is merely dry burns the cycle idling; a core whose
     * stream has ended and whose pipeline has drained becomes
     * finished.  No-op once finished.  Does NOT finalize the memory
     * hierarchy — the owner of shared memory state does that once
     * every core is finished.
     */
    void stepCycle();
    bool finished() const { return finished_; }
    /// @}

    /// @{ SMARTS-style sampling support (src/sample drives these).
    /**
     * Fast-forward functional warming: consume up to @p max_instrs
     * instructions from the stream without cycle-accurate timing.
     * With @p warm_state (the default) every consumed instruction
     * still updates the caches (via Cache::warmAccess), the branch
     * structures, the CGHC and the D-prefetch tables, with all
     * statistics counters frozen; without it the stream merely
     * advances (the deliberately-unwarmed perturbation mode the
     * validation suite uses).  Consumed instructions count into
     * warmedInstrs(), never into committedInstrs().
     * @return instructions actually consumed (less than the budget
     *         only when the stream ran dry or ended).
     */
    std::uint64_t fastForward(std::uint64_t max_instrs,
                              bool warm_state = true);

    /** Stop fetching new instructions (drain before a jump). */
    void suspendFetch(bool suspend) { fetchSuspended_ = suspend; }

    /** Pipeline empty: safe to fast-forward / cut a checkpoint. */
    bool
    drained() const
    {
        return rob_.empty() && fetchQueue_.empty();
    }

    /** Jump the cycle clock over a fast-forwarded region. */
    void advanceClock(Cycle skip) { now_ += skip; }

    /** Instructions consumed by fastForward (not committed). */
    std::uint64_t warmedInstrs() const { return warmedInstrs_; }

    /** Cycles fetch spent waiting on I-cache fills. */
    std::uint64_t
    fetchIcacheStallCycles() const
    {
        return fetchIcacheStallCycles_.value();
    }

    /** Mutable branch unit (checkpoint save/restore). */
    BranchUnit &branchUnit() { return branch_; }

    /** Fetch-line tracking state for checkpoints. */
    Addr lastFetchLine() const { return lastFetchLine_; }
    void setLastFetchLine(Addr line) { lastFetchLine_ = line; }
    /// @}

    Cycle cycles() const { return now_; }
    std::uint64_t committedInstrs() const { return committed_.value(); }
    std::uint64_t idleCycles() const { return idleCycles_.value(); }
    double
    ipc() const
    {
        return now_ == 0 ? 0.0
                         : static_cast<double>(committed_.value())
                             / static_cast<double>(now_);
    }

    const StatGroup &stats() const { return stats_; }
    const BranchUnit &branchUnit() const { return branch_; }

  private:
    /** Unit tests stage exact window contents through this. */
    friend struct CoreTestAccess;

    /**
     * What the back end keeps of a fetched instruction.  Everything
     * else a DynInst carries (branch outcome, function identities,
     * data hints) is consumed at fetch; the pseudo-register ids are
     * hashed there once.
     */
    struct MicroOp
    {
        Addr pc = invalidAddr;
        Addr memAddr = invalidAddr;
        std::uint64_t seq = 0;
        Cycle doneCycle = 0; ///< valid once issued
        InstKind kind = InstKind::IntOp;
        std::uint8_t src1 = 0;
        std::uint8_t src2 = 0;
        std::uint8_t dest = 0; ///< 0: r0, the always-ready sink
        bool issued = false;
    };

    /**
     * Fixed-capacity FIFO over a flat slot array.  push_back returns
     * the slot index, which names the entry until it is popped.
     */
    class Ring
    {
      public:
        explicit Ring(unsigned capacity) : slots_(capacity) {}

        bool empty() const { return count_ == 0; }
        unsigned size() const { return count_; }
        MicroOp &front() { return slots_[head_]; }
        MicroOp &operator[](unsigned slot) { return slots_[slot]; }

        unsigned
        push_back(const MicroOp &op)
        {
            const unsigned slot = wrap(head_ + count_);
            slots_[slot] = op;
            ++count_;
            return slot;
        }

        void
        pop_front()
        {
            head_ = wrap(head_ + 1);
            --count_;
        }

      private:
        unsigned
        wrap(unsigned i) const
        {
            const auto cap = static_cast<unsigned>(slots_.size());
            return i >= cap ? i - cap : i;
        }

        std::vector<MicroOp> slots_;
        unsigned head_ = 0;
        unsigned count_ = 0;
    };

    /** Functional units left to claim in the current cycle. */
    struct UnitBudget
    {
        unsigned alus;
        unsigned muls;
        unsigned ports;
    };

    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch();

    /** Claim the unit @p kind executes on; false if none is left. */
    static bool claimUnit(InstKind kind, UnitBudget &units);

    /** Execute an issued op (D-cache access for memory ops);
     *  returns its completion cycle. */
    Cycle execute(const MicroOp &op);

    /** Predict + prefetcher hooks for a fetched control transfer. */
    bool predictControl(const DynInst &inst);

    /**
     * The next stream instruction, held in place in the expander
     * until stream_.pop(); null when the stream is dry or has ended.
     * After the pop the pointee stays valid until the next peek().
     */
    const DynInst *
    peek()
    {
        if (streamDone_)
            return nullptr;
        const DynInst *next = stream_.peek();
        // A streaming source may be merely dry (another session owns
        // the next events); only a reported end is final.
        if (next == nullptr && stream_.endOfStream())
            streamDone_ = true;
        return next;
    }

    /** Back-end view of @p inst with its hashed pseudo-registers. */
    static MicroOp decode(const DynInst &inst, std::uint64_t seq);

    InstructionExpander &stream_;
    MemoryHierarchy &mem_;
    InstrPrefetcher *prefetcher_;
    DataPrefetcher *dprefetcher_;
    CoreConfig config_;
    BranchUnit branch_;

    Cycle now_ = 0;
    std::uint64_t seqGen_ = 0;

    Ring fetchQueue_;
    /** The reorder window: a ring of rsSize slots. */
    Ring rob_;
    /**
     * ROB slots not yet issued, oldest first.  Issue walks this list
     * instead of the whole window; it visits exactly the entries a
     * full age-ordered scan would not skip as already issued.
     */
    std::vector<unsigned> waiting_;
    unsigned lsqUsed_ = 0;

    bool streamDone_ = false;
    bool finished_ = false;
    bool fetchSuspended_ = false;
    std::uint64_t warmedInstrs_ = 0;
    bool wallBudget_ = false;
    std::chrono::steady_clock::time_point wallStart_{};

    Addr lastFetchLine_ = invalidAddr;
    Cycle fetchResumeCycle_ = 0;
    /** Sequence number of the unresolved blocking mispredict
     *  (0: none; sequence numbers start at 1). */
    std::uint64_t blockedOnSeq_ = 0;

    static constexpr unsigned numRegs = 32;
    Cycle regReady_[numRegs] = {};

    Counter committed_;
    Counter fetchIcacheStallCycles_;
    Counter fetchBranchStallCycles_;
    Counter fetchQueueFullCycles_;
    Counter robFullEvents_;
    Counter idleCycles_;
    StatGroup stats_;
};

} // namespace cgp

#endif // CGP_CPU_CORE_HH
