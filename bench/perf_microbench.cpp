/**
 * @file
 * Simulator performance microbenchmarks (google-benchmark): reservation
 * table operations, channel transport, router ticks, and whole-network
 * simulation throughput. These guard against performance regressions
 * in the hot paths — a full Figure 5 sweep runs millions of ticks.
 */

#include <benchmark/benchmark.h>

#include "common/config.hpp"
#include "frfc/input_table.hpp"
#include "frfc/output_table.hpp"
#include "harness/parallel.hpp"
#include "harness/presets.hpp"
#include "harness/sweep.hpp"
#include "network/fr_network.hpp"
#include "network/vc_network.hpp"
#include "sim/channel.hpp"

namespace frfc {
namespace {

void
BM_OutputTableReserveCredit(benchmark::State& state)
{
    OutputReservationTable ort(static_cast<int>(state.range(0)), 6, 4);
    Cycle now = 0;
    for (auto _ : state) {
        ort.advance(now);
        const Cycle d =
            ort.findDeparture(now + 1, [](Cycle) { return true; });
        if (d != kInvalidCycle) {
            ort.reserve(d);
            // Downstream departure: after the flit arrives at d + 4.
            if (d + 5 <= ort.windowEnd())
                ort.credit(d + 5);
            else
                ort.credit(ort.windowEnd());
        }
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OutputTableReserveCredit)->Arg(16)->Arg(32)->Arg(128);

/**
 * findDeparture alone, on a table with standing reservations and a
 * tight buffer supply — the lookup the router issues several times per
 * cycle. The buffer frontier comes from one backward walk over the
 * stored ±1 steps that jumps between nonzero steps a bitmap word at a
 * time, stopping at the first short run; channel cycles past it come
 * from word scans of the busy bitmap.
 */
void
BM_OutputTableFindDeparture(benchmark::State& state)
{
    const int horizon = static_cast<int>(state.range(0));
    OutputReservationTable ort(horizon, 4, 4);
    // Standing load: a few committed reservations and one credit.
    ort.reserve(1);
    ort.reserve(3);
    ort.reserve(horizon / 2);
    ort.credit(horizon / 2 + 4);
    Cycle min_depart = 0;
    for (auto _ : state) {
        min_depart = (min_depart + 1) % (horizon / 2);
        benchmark::DoNotOptimize(
            ort.findDeparture(min_depart, [](Cycle) { return true; }));
        benchmark::DoNotOptimize(
            ort.findDeparture(min_depart, [](Cycle) { return true; },
                              /*min_free=*/2));
    }
    state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_OutputTableFindDeparture)->Arg(16)->Arg(32)->Arg(128);

/**
 * Sweep-level speedup of the parallel experiment executor: an 8-point
 * latencyCurve on a reduced mesh, serial vs 8 workers. On an 8-core
 * host the 8-worker run should finish the curve >= 3x faster; results
 * are bit-identical either way (tests/test_parallel.cpp).
 */
void
BM_LatencyCurveSweep(benchmark::State& state)
{
    Config cfg = baseConfig();
    cfg.set("size_x", 4);
    cfg.set("size_y", 4);
    applyVc8(cfg);
    RunOptions opt;
    opt.samplePackets = 300;
    opt.minWarmup = 500;
    opt.maxWarmup = 1500;
    opt.maxCycles = 30000;
    opt.threads = static_cast<int>(state.range(0));
    const std::vector<double> loads{0.10, 0.20, 0.30, 0.40,
                                    0.50, 0.55, 0.60, 0.65};
    for (auto _ : state) {
        auto curve = latencyCurve(cfg, loads, opt);
        benchmark::DoNotOptimize(curve);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(loads.size()));
    state.SetLabel("runs/s");
}
BENCHMARK(BM_LatencyCurveSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_InputTableFlow(benchmark::State& state)
{
    InputReservationTable irt(32, 6);
    Cycle now = 0;
    Flit flit;
    flit.packet = 1;
    for (auto _ : state) {
        irt.advance(now);
        irt.recordReservation(now, now + 2, now + 4, kEast);
        benchmark::DoNotOptimize(irt.takeDepartures(now));
        ++now;
        irt.advance(now);
        ++now;
        irt.advance(now);
        flit.payload = Flit::expectedPayload(1, 0);
        irt.acceptFlit(now, flit);
        benchmark::DoNotOptimize(irt.takeDepartures(now));
        ++now;
        irt.advance(now);
        ++now;
        irt.advance(now);
        benchmark::DoNotOptimize(irt.takeDepartures(now));
        ++now;
    }
}
BENCHMARK(BM_InputTableFlow);

void
BM_ChannelTransport(benchmark::State& state)
{
    Channel<Flit> ch("bench", 4);
    Flit flit;
    Cycle now = 0;
    for (auto _ : state) {
        ch.push(now, flit);
        benchmark::DoNotOptimize(ch.drain(now));
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelTransport);

void
BM_VcNetworkCycle(benchmark::State& state)
{
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set("workload.offered", 0.01 * static_cast<double>(state.range(0)));
    VcNetwork net(cfg);
    net.kernel().run(1000);  // warm
    for (auto _ : state)
        net.kernel().run(1);
    state.SetItemsProcessed(state.iterations()
                            * net.topology().numNodes());
    state.SetLabel("node-cycles/s");
}
BENCHMARK(BM_VcNetworkCycle)->Arg(30)->Arg(60);

void
BM_FrNetworkCycle(benchmark::State& state)
{
    Config cfg = baseConfig();
    applyFr6(cfg);
    cfg.set("workload.offered", 0.01 * static_cast<double>(state.range(0)));
    FrNetwork net(cfg);
    net.kernel().run(1000);
    for (auto _ : state)
        net.kernel().run(1);
    state.SetItemsProcessed(state.iterations()
                            * net.topology().numNodes());
    state.SetLabel("node-cycles/s");
}
BENCHMARK(BM_FrNetworkCycle)->Arg(30)->Arg(60);

}  // namespace
}  // namespace frfc

BENCHMARK_MAIN();
