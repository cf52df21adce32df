/**
 * @file
 * Unified workload configuration surface.
 *
 * All workload-shaping keys live under the `workload.*` namespace and
 * are resolved here, in exactly one place, so no other layer of the
 * simulator hard-codes a workload key string (enforced by the
 * frfc-lint `workload-keys` rule):
 *
 *   workload.kind          synthetic | trace | memory (default inferred:
 *                          "trace" when a trace file is named, else
 *                          "synthetic")
 *   workload.offered       offered load, fraction of capacity (0.5)
 *   workload.packet_length flits per synthetic packet (5)
 *   workload.injection     bernoulli | periodic (bernoulli)
 *   workload.reply_length  synthetic request-reply mode: >0 makes every
 *                          packet a request answered by a reply of this
 *                          many flits from its destination (0 = open loop)
 *   workload.trace.file    trace path (selects kind=trace when set)
 *   workload.memory.*      memory-system generator knobs (see
 *                          traffic/memory.hpp): directories, hotspot,
 *                          req_length, reply_length, mshrs, burst_on,
 *                          burst_off
 *
 * The old flat keys (`offered`, `packet_length`, `injection`, `trace`)
 * are gone: a config that still sets one dies with a fatal naming its
 * `workload.*` replacement.
 */

#ifndef FRFC_TRAFFIC_WORKLOAD_HPP
#define FRFC_TRAFFIC_WORKLOAD_HPP

#include <string>

namespace frfc {

class Config;

/** @{ Canonical workload.* key names. Code outside src/traffic/ must
 *  spell workload keys through these constants (frfc-lint enforces). */
inline constexpr const char* kWorkloadKindKey = "workload.kind";
inline constexpr const char* kWorkloadOfferedKey = "workload.offered";
inline constexpr const char* kWorkloadPacketLengthKey =
    "workload.packet_length";
inline constexpr const char* kWorkloadInjectionKey = "workload.injection";
inline constexpr const char* kWorkloadReplyLengthKey =
    "workload.reply_length";
inline constexpr const char* kWorkloadTraceFileKey = "workload.trace.file";
inline constexpr const char* kWorkloadMemDirectoriesKey =
    "workload.memory.directories";
inline constexpr const char* kWorkloadMemHotspotKey =
    "workload.memory.hotspot";
inline constexpr const char* kWorkloadMemReqLengthKey =
    "workload.memory.req_length";
inline constexpr const char* kWorkloadMemReplyLengthKey =
    "workload.memory.reply_length";
inline constexpr const char* kWorkloadMemMshrsKey = "workload.memory.mshrs";
inline constexpr const char* kWorkloadMemBurstOnKey =
    "workload.memory.burst_on";
inline constexpr const char* kWorkloadMemBurstOffKey =
    "workload.memory.burst_off";
/** @} */

/** Workload family: "synthetic", "trace", or "memory". Validates
 *  workload.kind; infers "trace" when only a trace file is named. */
std::string workloadKind(const Config& cfg);

/** Offered load as a fraction of network capacity. */
double workloadOfferedFraction(const Config& cfg, double dflt = 0.5);

/** Set the offered-load fraction (the sweep helpers' single write
 *  path). */
void setWorkloadOffered(Config& cfg, double fraction);

/** Synthetic packet length in flits. */
int workloadPacketLength(const Config& cfg);

/** Synthetic request-reply mode: reply length in flits, 0 = open loop. */
int workloadReplyLength(const Config& cfg);

/** Longest packet this workload can inject (forwarding-mode checks). */
int workloadMaxPacketFlits(const Config& cfg);

/** Injection-process name ("bernoulli" / "periodic"). */
std::string workloadInjectionKind(const Config& cfg);

/** Trace path; empty when no trace is configured. */
std::string workloadTraceFile(const Config& cfg);

}  // namespace frfc

#endif  // FRFC_TRAFFIC_WORKLOAD_HPP
