/**
 * @file
 * Trace replay: record a bursty request/reply workload once, then play
 * the identical packet sequence through virtual-channel and
 * flit-reservation fabrics — an apples-to-apples comparison no
 * synthetic load sweep can give, and the workflow used when driving the
 * simulator from application traces.
 *
 *   $ ./trace_replay                  # generates and replays a demo trace
 *   $ ./trace_replay workload.trace.file=my.tr   # your own trace file
 *
 * The demo trace tags every request and marks each reply with
 * `reply_to`, so the replay is dependency-tracked: a server's reply is
 * held until its request has actually ejected there, whatever the
 * fabric's delivery time.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "network/network.hpp"
#include "topology/topology.hpp"
#include "traffic/generator.hpp"
#include "traffic/workload.hpp"

using namespace frfc;

namespace {

/**
 * A bursty client/server workload on the 4x4 chip: clients fire short
 * 1-flit requests at one of two servers, which answer with 5-flit
 * replies after a modeled service delay.
 */
std::vector<TraceEntry>
recordDemoWorkload()
{
    const NodeId servers[] = {5, 10};
    std::vector<TraceEntry> entries;
    Rng rng(7);
    Cycle now = 0;
    for (int burst = 0; burst < 40; ++burst) {
        now += 20 + rng.nextBounded(60);
        // Burst of requests from random distinct clients.
        const int clients = 2 + static_cast<int>(rng.nextBounded(4));
        for (int c = 0; c < clients; ++c) {
            const auto client = static_cast<NodeId>(rng.nextBounded(16));
            const NodeId server = servers[rng.nextBounded(2)];
            if (client == server)
                continue;
            const int tag = static_cast<int>(entries.size());
            TraceEntry request{now, client, server, 1};
            request.tag = tag;
            entries.push_back(request);
            // The reply leaves no earlier than a 30-cycle service
            // time, and never before the request itself arrives
            // (reply_to dependency).
            TraceEntry reply{now + 30, server, client, 5};
            reply.replyTo = tag;
            entries.push_back(reply);
        }
    }
    // Replies were appended out of order; the format requires sorted
    // cycles (stable so the file is identical on every platform).
    std::stable_sort(entries.begin(), entries.end(),
                     [](const TraceEntry& a, const TraceEntry& b) {
                         return a.cycle < b.cycle;
                     });
    return entries;
}

}  // namespace

int
main(int argc, char** argv)
{
    return bench::benchMain(
        argc, argv,
        {"trace_replay",
         "Replay one recorded workload through VC and FR fabrics"},
        [](bench::BenchContext& ctx) {
            std::string path;
            if (ctx.overrides().has(kWorkloadTraceFileKey)) {
                path = workloadTraceFile(ctx.overrides());
            } else {
                path = "demo_workload.tr";
                std::ofstream out(path);
                out << formatTrace(recordDemoWorkload());
                std::printf("recorded demo workload to %s\n",
                            path.c_str());
            }

            const auto total = static_cast<std::int64_t>(
                parseTraceFile(path, 16).size());

            std::printf(
                "\nReplaying the identical workload (%lld packets) "
                "through both fabrics (4x4 mesh):\n\n",
                static_cast<long long>(total));
            for (const char* preset : {"vc8", "fr6"}) {
                Config cfg = baseConfig();
                applyPreset(cfg, preset);
                cfg.set("size_x", 4);
                cfg.set("size_y", 4);
                cfg.set("data_buffers", 13);  // mixed lengths: headroom
                cfg.set(kWorkloadTraceFileKey, path);
                ctx.applyOverrides(cfg);

                auto net = makeNetwork(cfg);
                PacketRegistry& reg = net->registry();
                reg.startSampling(1u << 30);  // sample everything
                net->kernel().runUntil(
                    [&reg, total] {
                        return reg.packetsCreated() == total
                            && reg.packetsInFlight() == 0;
                    },
                    200000);
                const double avg = reg.sampleLatency().mean();
                const double p99 =
                    reg.sampleLatencyHistogram().quantile(0.99);
                std::printf(
                    "%-4s  %5lld packets, %6lld flits delivered; "
                    "avg latency %6.1f cycles (p99 %.0f)\n",
                    preset,
                    static_cast<long long>(reg.packetsDelivered()),
                    static_cast<long long>(reg.flitsDelivered()),
                    avg, p99);
                ctx.report().addScalar(
                    std::string("measured.") + preset + ".avg_latency",
                    avg);
                ctx.report().addScalar(
                    std::string("measured.") + preset + ".p99_latency",
                    p99);
                ctx.report().addScalar(
                    std::string("measured.") + preset
                        + ".packets_delivered",
                    static_cast<double>(reg.packetsDelivered()));
            }
            std::printf(
                "\nSame packets, same cycles of birth — any latency "
                "difference is pure flow control.\n");
        });
}
