/**
 * @file
 * netsim — a BookSim-style command-line front end over the library.
 * Every configuration key is exposed as key=value; a config file can
 * seed the experiment. Examples:
 *
 *   $ ./netsim scheme=fr data_buffers=6 workload.offered=0.7
 *   $ ./netsim scheme=vc num_vcs=4 vc_depth=4 workload.packet_length=21 \
 *              topology=torus traffic=transpose workload.offered=0.4
 *   $ ./netsim config=myexp.cfg seed=7 run.sample_packets=100000
 *   $ ./netsim preset=fr6 out.format=json out.file=run.json
 *
 * Prints the experiment configuration, the measurement protocol
 * phases, and the resulting latency/throughput statistics; out.format
 * emits the same run as a structured report with per-router metrics.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "network/fr_network.hpp"
#include "network/network.hpp"
#include "sim/parallel_kernel.hpp"
#include "topology/topology.hpp"

using namespace frfc;

int
main(int argc, char** argv)
{
    return bench::benchMain(
        argc, argv,
        {"netsim",
         "BookSim-style front end: one fully configurable measurement "
         "run"},
        [](bench::BenchContext& ctx) {
            Config cfg = baseConfig();
            applyVc8(cfg);  // defaults; overridden freely below
            ctx.applyOverrides(cfg);
            if (cfg.has("config"))
                cfg.loadFile(cfg.get<std::string>("config"));
            if (cfg.has("preset"))
                applyPreset(cfg, cfg.get<std::string>("preset"));

            // netsim defaults to paper-scale options regardless of
            // --full; run.* keys still override.
            const RunOptions opt =
                RunOptions::fromConfig(cfg, RunOptions{});
            auto net = makeNetwork(cfg);

            std::printf("network : %s, %s flow control\n",
                        net->topology().describe().c_str(),
                        net->scheme() == "fr" ? "flit-reservation"
                                              : "virtual-channel");
            std::printf(
                "capacity: %.3f flits/node/cycle; offered %.1f%%\n",
                net->capacity(),
                net->offeredLoad() / net->capacity() * 100.0);
            std::printf(
                "sample  : %lld packets (min %lld warm-up cycles)\n\n",
                static_cast<long long>(opt.samplePackets),
                static_cast<long long>(opt.minWarmup));

            const RunResult r = runMeasurement(*net, opt);

            std::printf("warm-up    : %lld cycles\n",
                        static_cast<long long>(r.warmupCycles));
            std::printf("simulated  : %lld cycles total\n",
                        static_cast<long long>(r.totalCycles));
            std::printf("delivered  : %lld packets\n",
                        static_cast<long long>(r.packetsDelivered));
            if (!r.complete)
                std::printf("status     : SATURATED — sample not fully "
                            "delivered within run.max_cycles\n");
            std::printf("latency    : avg %.2f cycles (95%% CI +/- "
                        "%.2f), min %.0f, max %.0f\n",
                        r.avgLatency, r.ci95, r.minLatency,
                        r.maxLatency);
            std::printf("percentiles: p50 %.0f, p99 %.0f cycles\n",
                        r.p50Latency, r.p99Latency);
            std::printf("throughput : %.4f flits/node/cycle accepted "
                        "(%.1f%% of capacity)\n",
                        r.accepted, r.acceptedFraction * 100.0);

            if (auto* fr = dynamic_cast<FrNetwork*>(net.get())) {
                std::printf(
                    "fr stats   : %lld bypasses, %lld flits arrived "
                    "before control, control lead %.1f cycles\n",
                    static_cast<long long>(fr->totalBypasses()),
                    static_cast<long long>(fr->totalParked()),
                    fr->avgControlLead());
                ctx.report().addScalar(
                    "measured.bypasses",
                    static_cast<double>(fr->totalBypasses()));
                ctx.report().addScalar("measured.control_lead",
                                       fr->avgControlLead());
            }
            ctx.report().addCurve("run", cfg).runs.push_back(r);

            if (ParallelKernel* pk = net->parallelKernel()) {
                // Shard balance: a shard with a disproportionate tick
                // share is the window's critical path.
                const std::vector<std::int64_t> ticks =
                    pk->shardTicks();
                const std::vector<std::size_t> comps =
                    pk->shardComponents();
                std::int64_t total_ticks = 0;
                for (const std::int64_t t : ticks)
                    total_ticks += t;
                std::printf(
                    "parallel   : %d shards, lookahead %lld cycles, "
                    "%lld windows\n",
                    pk->shardCount(),
                    static_cast<long long>(pk->lookahead()),
                    static_cast<long long>(pk->windowsExecuted()));
                for (std::size_t s = 0; s < ticks.size(); ++s) {
                    const double share = total_ticks > 0
                        ? static_cast<double>(ticks[s])
                            / static_cast<double>(total_ticks)
                        : 0.0;
                    std::printf("  shard %2zu : %4zu components, "
                                "%10lld ticks (%.1f%%)\n",
                                s, comps[s],
                                static_cast<long long>(ticks[s]),
                                share * 100.0);
                }
                ctx.report().addScalar(
                    "parallel.shards",
                    static_cast<double>(pk->shardCount()));
                ctx.report().addScalar(
                    "parallel.windows",
                    static_cast<double>(pk->windowsExecuted()));
                ctx.report().addScalar(
                    "parallel.lookahead",
                    static_cast<double>(pk->lookahead()));
            }

            if (cfg.getBool("stats.links", false)) {
                // Busiest data links: flits forwarded over cycles.
                struct LinkLoad
                {
                    NodeId node;
                    PortId port;
                    double util;
                };
                std::vector<LinkLoad> loads;
                const auto cycles =
                    static_cast<double>(net->driver().now());
                for (NodeId node = 0; node < net->topology().numNodes();
                     ++node) {
                    for (PortId port = kEast; port <= kSouth; ++port) {
                        if (net->topology().neighbor(node, port)
                            == kInvalidNode)
                            continue;
                        loads.push_back(LinkLoad{
                            node, port,
                            static_cast<double>(
                                net->flitsForwarded(node, port))
                                / cycles});
                    }
                }
                std::sort(loads.begin(), loads.end(),
                          [](const LinkLoad& a, const LinkLoad& b) {
                              return a.util > b.util;
                          });
                std::printf("\nbusiest data links (flits/cycle):\n");
                for (std::size_t i = 0; i < loads.size() && i < 8;
                     ++i) {
                    std::printf(
                        "  node %2d %-5s -> node %2d : %.3f\n",
                        loads[i].node, directionName(loads[i].port),
                        net->topology().neighbor(loads[i].node,
                                                 loads[i].port),
                        loads[i].util);
                }
            }
        });
}
