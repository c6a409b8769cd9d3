#include "sample/checkpoint.hh"

#include <stdexcept>

#include "branch/predictor.hh"
#include "cpu/core.hh"
#include "dprefetch/correlation.hh"
#include "dprefetch/semantic.hh"
#include "dprefetch/stride.hh"
#include "mem/cache.hh"
#include "prefetch/cghc.hh"
#include "trace/expand.hh"

namespace cgp::sample
{

namespace
{

constexpr int checkpointFormat = 1;

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
toHex(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/** Check one optional section: presence must match the machine's
 *  configuration, and a present section must fit its structure. */
template <typename T>
void
checkSection(const Json &state, const char *key, const T *part)
{
    const Json &section = state.at(key);
    if (section.isNull() != (part == nullptr))
        throw std::runtime_error(
            std::string("checkpoint section '") + key +
            "' presence does not match the machine configuration");
    if (part != nullptr)
        part->checkState(section);
}

template <typename T>
void
loadSection(const Json &state, const char *key, T *part)
{
    if (part != nullptr)
        part->loadState(state.at(key));
}

} // namespace

std::string
checkpointKey(const std::string &workload,
              const std::string &configLabel,
              std::uint64_t warmup_instrs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, workload);
    h = fnv1a(h, "|");
    h = fnv1a(h, configLabel);
    h = fnv1a(h, "|");
    h = fnv1a(h, std::to_string(warmup_instrs));
    return "warm-" + toHex(h);
}

Json
buildCheckpoint(const CheckpointParts &parts,
                const std::string &workload,
                const std::string &configLabel,
                std::uint64_t warmup_instrs, std::uint64_t consumed)
{
    Json meta = Json::object();
    meta.set("format", checkpointFormat);
    meta.set("workload", workload);
    meta.set("config", configLabel);
    meta.set("warmup_instrs", warmup_instrs);
    meta.set("consumed", consumed);

    Json state = Json::object();
    state.set("l1i",
              parts.l1i ? parts.l1i->saveState() : Json(nullptr));
    state.set("l1d",
              parts.l1d ? parts.l1d->saveState() : Json(nullptr));
    state.set("l2",
              parts.l2 ? parts.l2->saveState() : Json(nullptr));
    state.set("branch",
              parts.branch ? parts.branch->saveState()
                           : Json(nullptr));
    state.set("cghc",
              parts.cghc ? parts.cghc->saveState() : Json(nullptr));
    state.set("stride",
              parts.stride ? parts.stride->saveState()
                           : Json(nullptr));
    state.set("correlation",
              parts.correlation ? parts.correlation->saveState()
                                : Json(nullptr));
    state.set("semantic",
              parts.semantic ? parts.semantic->saveState()
                             : Json(nullptr));

    Json core = Json::object();
    core.set("last_fetch_line",
             parts.core ? parts.core->lastFetchLine()
                        : invalidAddr);
    state.set("core", std::move(core));

    Json doc = Json::object();
    doc.set("meta", std::move(meta));
    doc.set("state", std::move(state));
    return doc;
}

std::uint64_t
applyCheckpoint(const Json &doc, const CheckpointParts &parts,
                const std::string &workload,
                const std::string &configLabel,
                std::uint64_t warmup_instrs)
{
    std::uint64_t consumed = 0;
    Addr lastFetchLine = invalidAddr;
    const Json *state = nullptr;
    try {
        const Json &meta = doc.at("meta");
        if (meta.at("format").asInt() != checkpointFormat)
            throw std::runtime_error("unknown checkpoint format");
        if (meta.at("workload").asString() != workload ||
            meta.at("config").asString() != configLabel ||
            meta.at("warmup_instrs").asUint() != warmup_instrs)
            throw std::runtime_error("checkpoint identity mismatch "
                                     "(workload/config/warmup)");
        consumed = meta.at("consumed").asUint();
        if (consumed > warmup_instrs)
            throw std::runtime_error(
                "checkpoint consumed count exceeds warmup budget");

        state = &doc.at("state");
        checkSection(*state, "l1i", parts.l1i);
        checkSection(*state, "l1d", parts.l1d);
        checkSection(*state, "l2", parts.l2);
        checkSection(*state, "branch", parts.branch);
        checkSection(*state, "cghc", parts.cghc);
        checkSection(*state, "stride", parts.stride);
        checkSection(*state, "correlation", parts.correlation);
        checkSection(*state, "semantic", parts.semantic);
        lastFetchLine =
            state->at("core").at("last_fetch_line").asUint();
    } catch (const std::runtime_error &e) {
        throw CheckpointRejected(e.what());
    }

    loadSection(*state, "l1i", parts.l1i);
    loadSection(*state, "l1d", parts.l1d);
    loadSection(*state, "l2", parts.l2);
    loadSection(*state, "branch", parts.branch);
    loadSection(*state, "cghc", parts.cghc);
    loadSection(*state, "stride", parts.stride);
    loadSection(*state, "correlation", parts.correlation);
    loadSection(*state, "semantic", parts.semantic);
    if (parts.core)
        parts.core->setLastFetchLine(lastFetchLine);
    return consumed;
}

std::uint64_t
warmPrefix(Core &core, InstructionExpander &stream,
           const SampleConfig &config, const CheckpointTarget &target,
           SampledStats &stats)
{
    if (config.warmupInstrs == 0)
        return 0;

    const bool store =
        config.functionalWarming && config.checkpoints.any();
    const std::string key = store
        ? checkpointKey(target.workload, target.configLabel,
                        config.warmupInstrs)
        : std::string();

    if (store && config.checkpoints.load) {
        if (auto doc = config.checkpoints.load(key)) {
            try {
                const std::uint64_t consumed = applyCheckpoint(
                    *doc, target.parts, target.workload,
                    target.configLabel, config.warmupInstrs);
                if (stream.advance(consumed) != consumed)
                    throw std::runtime_error(
                        "trace shorter than checkpoint replay");
                stats.checkpointUsed = true;
                return consumed;
            } catch (const CheckpointRejected &) {
                // Nothing was touched: warm from scratch.
            }
        }
    }

    const std::uint64_t consumed =
        core.fastForward(config.warmupInstrs,
                         config.functionalWarming);
    if (store && config.checkpoints.save && consumed > 0) {
        config.checkpoints.save(
            key, buildCheckpoint(target.parts, target.workload,
                                 target.configLabel,
                                 config.warmupInstrs, consumed));
        stats.checkpointSaved = true;
    }
    // The core's own fastForward accounting already covers this
    // prefix — only checkpoint replay is external.
    return 0;
}

} // namespace cgp::sample
