/**
 * @file
 * SMARTS-style sampling configuration (DESIGN.md §11).
 *
 * A sampled run alternates short cycle-accurate *detailed windows*
 * with long *fast-forward* stretches in which trace expansion still
 * updates every piece of predictive micro-architectural state —
 * caches, branch structures, CGHC, D-prefetch tables — but skips
 * cycle-accurate timing entirely (functional warming).  Each
 * detailed window contributes one observation per metric to the
 * estimators in estimator.hh.
 *
 * Warm-state checkpoints are plumbed through CheckpointHooks, a pair
 * of key-value callbacks, so this library stays free of any artifact
 * or run-dir dependency: src/exp installs a sealed, atomically
 * written store (exp/checkpoint.hh); tests install plain lambdas.
 */

#ifndef CGP_SAMPLE_CONFIG_HH
#define CGP_SAMPLE_CONFIG_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "util/json.hh"
#include "util/types.hh"

namespace cgp::sample
{

/**
 * Key-value checkpoint store interface.  `load` returns the
 * checkpoint document for a key, or nullopt when absent or damaged
 * (a damaged artifact is the *store's* problem — quarantine it and
 * return nullopt; the sampler transparently re-warms).  `save`
 * persists a freshly built checkpoint.  Either hook may be empty.
 */
struct CheckpointHooks
{
    std::function<std::optional<Json>(const std::string &key)> load;
    std::function<void(const std::string &key, Json &&checkpoint)>
        save;

    bool
    any() const
    {
        return static_cast<bool>(load) || static_cast<bool>(save);
    }
};

struct SampleConfig
{
    bool enabled = false;

    /** Cycle-accurate measurement window length. */
    Cycle windowCycles = 50000;

    /**
     * Sampling period: one detailed window every this many cycles;
     * the remainder is covered by fast-forward functional warming.
     * Must exceed windowCycles.
     */
    Cycle periodCycles = 500000;

    /** Instructions functionally warmed before the first window
     *  (the checkpointable prefix). */
    std::uint64_t warmupInstrs = 200000;

    /**
     * Functional warming during fast-forward (the default).  When
     * false, fast-forward merely advances the trace without updating
     * any micro-architectural state — the deliberately-unwarmed
     * perturbation mode whose estimates the validation suite asserts
     * fall *outside* the confidence interval.
     */
    bool functionalWarming = true;

    /** Checkpoint store for warmup reuse, used whenever it has
     *  hooks (not part of the configuration identity — describe()
     *  ignores it). */
    CheckpointHooks checkpoints;

    /** Label fragment ("smp50k_500k"), stable across hook changes. */
    std::string describe() const;
};

} // namespace cgp::sample

#endif // CGP_SAMPLE_CONFIG_HH
