#include "harness/report.hh"

#include <string>
#include <type_traits>

#include "util/fields.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace cgp
{

void
writeComparison(const std::vector<SimResult> &results,
                std::ostream &os)
{
    cgp_assert(!results.empty(), "nothing to compare");
    TablePrinter t("comparison: " + results.front().workload);
    t.setHeader({"config", "cycles", "norm", "IPC", "I$ misses",
                 "pf useful", "bus lines"});
    const auto base = static_cast<double>(results.front().cycles);
    for (const auto &r : results) {
        cgp_assert(r.workload == results.front().workload,
                   "comparing different workloads");
        const auto total = r.totalPrefetch();
        t.addRow({r.config, TablePrinter::num(r.cycles),
                  TablePrinter::fixed(
                      static_cast<double>(r.cycles) / base, 3),
                  TablePrinter::fixed(r.ipc(), 2),
                  TablePrinter::num(r.icacheMisses),
                  total.issued > 0
                      ? TablePrinter::percent(total.usefulFraction())
                      : "-",
                  TablePrinter::num(r.busLines)});
    }
    t.print(os);
}

namespace
{

/// @{ One generic walk each way over the field lists: scalars map to
/// JSON scalars, structs to objects in field-list order, vectors to
/// arrays.  A flagged block is written only when its flag is set, and
/// read back as set exactly when its key is present.
Json
toJsonValue(const auto &value)
{
    using T = std::remove_cvref_t<decltype(value)>;
    if constexpr (HasFields<T>) {
        Json j = Json::object();
        forEachField(value, [&j](const char *key, const auto &member,
                                 const auto &...present) {
            if ((present && ...))
                j.set(key, toJsonValue(member));
        });
        return j;
    } else if constexpr (requires { value.begin(); } &&
                         !std::is_same_v<T, std::string>) {
        Json j = Json::array();
        for (const auto &item : value)
            j.push(toJsonValue(item));
        return j;
    } else {
        return Json(value);
    }
}

void
fromJsonValue(const Json &j, auto &value)
{
    using T = std::remove_cvref_t<decltype(value)>;
    if constexpr (HasFields<T>) {
        forEachField(value, [&j](const char *key, auto &member,
                                 auto &...present) {
            if constexpr (sizeof...(present) == 0) {
                fromJsonValue(j.at(key), member);
            } else {
                const Json *block = j.find(key);
                ((present = block != nullptr), ...);
                if (block != nullptr)
                    fromJsonValue(*block, member);
            }
        });
    } else if constexpr (std::is_same_v<T, std::string>) {
        value = j.asString();
    } else if constexpr (std::is_same_v<T, bool>) {
        value = j.asBool();
    } else if constexpr (std::is_same_v<T, double>) {
        value = j.asDouble();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        value = j.asUint();
    } else {
        for (const Json &item : j.items())
            fromJsonValue(item, value.emplace_back());
    }
}
/// @}

} // namespace

Json
toJson(const SimResult &result)
{
    return toJsonValue(result);
}

SimResult
simResultFromJson(const Json &json)
{
    SimResult r;
    fromJsonValue(json, r);
    return r;
}

} // namespace cgp
