/**
 * @file
 * Saturation explorer: bisect the saturation throughput of any
 * configuration and sketch its latency-load curve in the terminal.
 * Saturation probes and curve points run on the parallel experiment
 * executor; pass run.threads=N to control the worker count (0 = one
 * per hardware thread, the default).
 *
 *   $ ./saturation_explorer preset=fr6
 *   $ ./saturation_explorer preset=vc8 workload.packet_length=21 run.threads=4
 *   $ ./saturation_explorer preset=fr6 out.format=json out.file=fr6.json
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace frfc;

int
main(int argc, char** argv)
{
    return bench::benchMain(
        argc, argv,
        {"saturation_explorer",
         "Bisect saturation throughput and sketch the latency-load "
         "curve"},
        [](bench::BenchContext& ctx) {
            const RunOptions& opt = ctx.options();

            const std::string preset =
                ctx.overrides().get<std::string>("preset", "fr6");
            Config cfg = baseConfig();
            applyPreset(cfg, preset);
            // Re-apply user overrides the preset may have clobbered.
            ctx.applyOverrides(cfg);

            std::printf("Exploring %s on %d worker thread(s)...\n\n",
                        preset.c_str(), resolveThreads(opt.threads));
            const bench::WallTimer timer;

            const RunResult base = measureBaseLatency(cfg, opt);
            std::printf("base latency: %.1f cycles\n", base.avgLatency);

            const double sat = findSaturation(cfg, opt);
            std::printf("saturation  : %.1f%% of capacity\n\n",
                        sat * 100.0);
            ctx.report().addScalar("measured.base_latency",
                                   base.avgLatency);
            ctx.report().addScalar("measured.saturation", sat * 100.0);

            // ASCII latency-load curve up to just past saturation; all
            // points run as one parallel batch.
            std::vector<double> loads;
            for (double frac = 0.1; frac <= sat + 0.049; frac += 0.1)
                loads.push_back(frac);
            const std::vector<RunResult> curve =
                latencyCurve(cfg, loads, opt);
            ReportCurve& rc = ctx.report().addCurve(preset, cfg);
            rc.runs = curve;

            std::printf("offered%%  latency  curve (each # ~ 4 cycles "
                        "over base)\n");
            double sim_cycles = static_cast<double>(base.totalCycles);
            for (const RunResult& r : curve)
                sim_cycles += static_cast<double>(r.totalCycles);
            for (const RunResult& r : curve) {
                if (!r.complete) {
                    std::printf("%7.0f   (saturated)\n",
                                r.offeredFraction * 100.0);
                    break;
                }
                const int bars = static_cast<int>(
                    (r.avgLatency - base.avgLatency) / 4.0);
                std::printf(
                    "%7.0f   %7.1f  %s\n", r.offeredFraction * 100.0,
                    r.avgLatency,
                    std::string(
                        static_cast<std::size_t>(std::max(0, bars)), '#')
                        .c_str());
            }

            const double elapsed = timer.seconds();
            std::printf("\n%.2fs wall, %.0f kcycles/s simulated\n",
                        elapsed,
                        elapsed > 0.0 ? sim_cycles / elapsed / 1e3 : 0.0);
        });
}
