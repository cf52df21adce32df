#include "traffic/workload.hpp"

#include <algorithm>
#include <utility>

#include "common/config.hpp"
#include "common/log.hpp"

namespace frfc {

namespace {

/** Flat spellings of workload.* keys that were removed; a config that
 *  still sets one dies naming its replacement. */
constexpr std::pair<const char*, const char*> kRemovedKeys[] = {
    {"offered", kWorkloadOfferedKey},
    {"packet_length", kWorkloadPacketLengthKey},
    {"injection", kWorkloadInjectionKey},
    {"trace", kWorkloadTraceFileKey},
};

/** Read @p key, or @p dflt when unset. Every workload read first
 *  rejects the removed flat keys, so a stale config fails whichever
 *  key the run resolves first. */
template <typename T>
T
resolve(const Config& cfg, const char* key, const T& dflt)
{
    for (const auto& [removed, replacement] : kRemovedKeys) {
        if (cfg.has(removed)) {
            fatal("config key '", removed, "' was removed; use '",
                  replacement, "'");
        }
    }
    return cfg.has(key) ? cfg.get<T>(key) : dflt;
}

}  // namespace

std::string
workloadKind(const Config& cfg)
{
    const std::string kind =
        resolve<std::string>(cfg, kWorkloadKindKey, "");
    if (!kind.empty()) {
        if (kind != "synthetic" && kind != "trace" && kind != "memory") {
            fatal("workload.kind must be synthetic, trace, or memory "
                  "(got '", kind, "')");
        }
        return kind;
    }
    // Inferred: a named trace file selects trace replay.
    return workloadTraceFile(cfg).empty() ? "synthetic" : "trace";
}

double
workloadOfferedFraction(const Config& cfg, double dflt)
{
    return resolve<double>(cfg, kWorkloadOfferedKey, dflt);
}

void
setWorkloadOffered(Config& cfg, double fraction)
{
    cfg.set(kWorkloadOfferedKey, fraction);
}

int
workloadPacketLength(const Config& cfg)
{
    return resolve<int>(cfg, kWorkloadPacketLengthKey, 5);
}

int
workloadReplyLength(const Config& cfg)
{
    return resolve<int>(cfg, kWorkloadReplyLengthKey, 0);
}

int
workloadMaxPacketFlits(const Config& cfg)
{
    int flits = std::max(workloadPacketLength(cfg),
                         workloadReplyLength(cfg));
    if (workloadKind(cfg) == "memory") {
        flits = std::max(flits,
                         resolve<int>(cfg, kWorkloadMemReqLengthKey, 1));
        flits = std::max(flits,
                         resolve<int>(cfg, kWorkloadMemReplyLengthKey, 5));
    }
    return flits;
}

std::string
workloadInjectionKind(const Config& cfg)
{
    return resolve<std::string>(cfg, kWorkloadInjectionKey, "bernoulli");
}

std::string
workloadTraceFile(const Config& cfg)
{
    return resolve<std::string>(cfg, kWorkloadTraceFileKey, "");
}

}  // namespace frfc
