/**
 * @file
 * Warm-state checkpoints: everything functional warming touches,
 * serialized through util/json into one document (DESIGN.md §11.3).
 *
 * A checkpoint is cut only at the end of the *pure* warmup prefix —
 * the machine has never executed a detailed cycle, so every
 * statistics counter is still zero, no MSHR is in flight and the
 * cycle clock reads zero.  That choice keeps the format small
 * (counters need not be serialized) and makes restore trivially
 * exact: load the state arrays into freshly constructed structures,
 * then replay the trace expander forward by the recorded instruction
 * count (expansion is deterministic, so the expander's internal
 * state is reconstructed rather than serialized).
 *
 * Restore is all-or-nothing: every section is checked against the
 * machine before any structure is touched, so a checkpoint that does
 * not fit is rejected with the machine still in its reset state.
 */

#ifndef CGP_SAMPLE_CHECKPOINT_HH
#define CGP_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sample/config.hh"
#include "sample/estimator.hh"
#include "util/json.hh"

namespace cgp
{

class BranchUnit;
class Cache;
class Cghc;
class CorrelationDataPrefetcher;
class Core;
class InstructionExpander;
class SemanticDataPrefetcher;
class StrideDataPrefetcher;

namespace sample
{

/**
 * Borrowed pointers to every structure a checkpoint covers.  l2 may
 * be null when the L2 is shared and its owner checkpoints it
 * elsewhere; the engine pointers are null when the corresponding
 * prefetcher is not part of the configuration (the checkpoint
 * records which sections are present and restore demands the same
 * shape and geometry — the configuration label in the key does not
 * name every geometry, so restore checks rather than trusts it).
 */
struct CheckpointParts
{
    Cache *l1i = nullptr;
    Cache *l1d = nullptr;
    Cache *l2 = nullptr;
    BranchUnit *branch = nullptr;
    Cghc *cghc = nullptr;
    StrideDataPrefetcher *stride = nullptr;
    CorrelationDataPrefetcher *correlation = nullptr;
    SemanticDataPrefetcher *semantic = nullptr;
    Core *core = nullptr;
};

/** What a warm-prefix checkpoint covers and is keyed by. */
struct CheckpointTarget
{
    CheckpointParts parts;
    std::string workload;
    std::string configLabel;
};

/** A checkpoint that does not fit the machine, rejected before any
 *  state was touched (the caller may warm from scratch). */
struct CheckpointRejected : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Store key for a warmup checkpoint: FNV-1a hash (hex) of the
 * workload name, the full configuration label and the warmup length
 * — any of which changing must miss the store.
 */
std::string checkpointKey(const std::string &workload,
                          const std::string &configLabel,
                          std::uint64_t warmup_instrs);

/**
 * Serialize the warmed state plus identifying metadata.
 * @param consumed Instructions the warmup actually consumed (may be
 *        short of the requested warmup on a small trace); restore
 *        replays the expander by exactly this count.
 */
Json buildCheckpoint(const CheckpointParts &parts,
                     const std::string &workload,
                     const std::string &configLabel,
                     std::uint64_t warmup_instrs,
                     std::uint64_t consumed);

/**
 * Validate @p doc's metadata against the expected identity and every
 * state section's presence and geometry against @p parts, then load
 * the sections.  Throws CheckpointRejected, touching nothing, when
 * anything does not fit.  Once checked, only a document whose values
 * have the wrong JSON type can still fail mid-load; buildCheckpoint
 * never writes one, so that std::runtime_error is not a rejection.
 * @return the recorded consumed-instruction count for the caller to
 *         replay through InstructionExpander::advance().
 */
std::uint64_t applyCheckpoint(const Json &doc,
                              const CheckpointParts &parts,
                              const std::string &workload,
                              const std::string &configLabel,
                              std::uint64_t warmup_instrs);

/**
 * Warm @p core for @p config's warmupInstrs prefix: restore the
 * checkpoint the store has for @p target, else fast-forward
 * functionally and offer the cut state back to the store.  The
 * store is used only when it has hooks and warming is functional.
 * @return instructions the prefix consumed outside the core's own
 *         fastForward accounting (i.e. via checkpoint replay).
 */
std::uint64_t warmPrefix(Core &core, InstructionExpander &stream,
                         const SampleConfig &config,
                         const CheckpointTarget &target,
                         SampledStats &stats);

} // namespace sample
} // namespace cgp

#endif // CGP_SAMPLE_CHECKPOINT_HH
