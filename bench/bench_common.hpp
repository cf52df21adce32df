/**
 * @file
 * Shared driver for the figure/table regeneration benches.
 *
 * Every bench is a body function handed to benchMain(), which owns the
 * command line, the measurement options, and the structured Report:
 *
 *   int main(int argc, char** argv) {
 *       return frfc::bench::benchMain(
 *           argc, argv,
 *           {"fig5_latency_5flit", "Figure 5: ..."},
 *           [](frfc::bench::BenchContext& ctx) { ... });
 *   }
 *
 * Command line accepted by every bench:
 *   --full        paper-scale runs (100k-packet samples, 10k+ warm-up)
 *   --csv         print the text tables in CSV form
 *   key=value     any Config override (seed=..., run.threads=..., and
 *                 the out.* report keys below)
 *
 * Structured output (see harness/report.hpp): `out.format=json` or
 * `out.format=csv` serializes the full Report — every config, load,
 * RunResult, and per-component metrics snapshot — to `out.file` (or
 * stdout when unset). The default `out.format=table` keeps the classic
 * human-readable tables only. RunOptions::fromConfig is the single
 * construction path for measurement options: `run.*` keys given on the
 * command line override either mode's defaults.
 *
 * Default (quick) mode uses reduced sample sizes so the whole bench
 * suite finishes in minutes; the curves keep their shape, with more
 * sampling noise.
 */

#ifndef FRFC_BENCH_BENCH_COMMON_HPP
#define FRFC_BENCH_BENCH_COMMON_HPP

#include <cctype>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "harness/parallel.hpp"
#include "harness/presets.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "network/runner.hpp"
#include "sim/kernel.hpp"
#include "traffic/workload.hpp"

namespace frfc::bench {

/** Identity of one bench, shown in --help and stamped on the Report. */
struct BenchInfo
{
    const char* name;   ///< artifact name, e.g. "fig5_latency_5flit"
    const char* title;  ///< one-line human description
};

/** Wall-clock stopwatch for whole-sweep timing. */
class WallTimer
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * Everything a bench body needs: parsed mode flags, the single
 * RunOptions, config overrides, and the Report being built. Emission
 * helpers print the human tables and record into the Report in one
 * call, so text and JSON outputs cannot drift apart.
 */
class BenchContext
{
  public:
    BenchContext(const BenchInfo& info, bool full, bool csv,
                 Config overrides)
        : info_(info), full_(full), csv_(csv),
          overrides_(std::move(overrides)),
          report_(info.name, info.title)
    {
        RunOptions base;  // paper-scale defaults
        if (!full_) {
            base.samplePackets = 1500;
            base.minWarmup = 2000;
            base.maxWarmup = 5000;
            base.maxCycles = 80000;
        }
        options_ = RunOptions::fromConfig(overrides_, base);
        report_.setMode(full_ ? "full" : "quick");
    }

    bool full() const { return full_; }
    bool csv() const { return csv_; }

    /** The bench's single set of measurement options. */
    const RunOptions& options() const { return options_; }

    /** The structured report under construction. */
    Report& report() { return report_; }

    /** The raw command-line key=value overrides. */
    const Config& overrides() const { return overrides_; }

    /** Apply command-line key=value overrides onto a config. */
    void
    applyOverrides(Config& cfg) const
    {
        for (const auto& key : overrides_.keys())
            cfg.set(key, overrides_.get<std::string>(key));
    }

    /** Load points for latency-throughput curves. */
    std::vector<double>
    curveLoads() const
    {
        if (full_)
            return standardLoads();
        return {0.10, 0.30, 0.45, 0.55, 0.65, 0.70, 0.75, 0.80, 0.85,
                0.90};
    }

    /**
     * Render one latency-vs-offered-traffic figure and record every
     * (config, runs) pair into the Report. names, cfgs, and curves
     * index together.
     */
    void
    emitCurves(const std::string& title,
               const std::vector<std::string>& names,
               const std::vector<Config>& cfgs,
               const std::vector<std::vector<RunResult>>& curves)
    {
        for (std::size_t i = 0; i < curves.size(); ++i) {
            ReportCurve& rc = report_.addCurve(
                i < names.size() ? names[i] : "curve" + std::to_string(i),
                i < cfgs.size() ? cfgs[i] : Config{});
            rc.runs = curves[i];
        }
        printCurves(title, names, curves);
    }

    /** Table-only variant for derived rows that are not swept runs. */
    void
    printCurves(const std::string& title,
                const std::vector<std::string>& names,
                const std::vector<std::vector<RunResult>>& curves) const
    {
        std::printf("== %s ==\n", title.c_str());
        std::printf("(%s mode; latency in cycles; 'sat' = did not "
                    "complete the sample within the cycle budget)\n",
                    full_ ? "full" : "quick");
        TextTable table;
        std::vector<std::string> header{"offered(%)"};
        for (const auto& name : names)
            header.push_back(name);
        table.setHeader(header);
        const std::size_t points = curves.empty() ? 0 : curves[0].size();
        for (std::size_t i = 0; i < points; ++i) {
            std::vector<std::string> row{
                TextTable::num(curves[0][i].offeredFraction * 100.0, 0)};
            for (const auto& curve : curves) {
                row.push_back(curve[i].complete
                                  ? TextTable::num(curve[i].avgLatency, 1)
                                  : std::string("sat"));
            }
            table.addRow(row);
        }
        if (csv_)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::printf("\n");
    }

    /**
     * Print a paper-vs-measured comparison line and record both values
     * as Report scalars (`paper.<slug>` / `measured.<slug>`).
     */
    void
    comparison(const std::string& what, double paper, double measured)
    {
        std::printf("  %-44s paper %-8.1f measured %-8.1f\n",
                    what.c_str(), paper, measured);
        const std::string slug = slugify(what);
        report_.addScalar("paper." + slug, paper);
        report_.addScalar("measured." + slug, measured);
    }

    /** Annotation printed nowhere but carried into the Report. */
    void note(const std::string& text) { report_.addNote(text); }

    /**
     * Print sweep wall-clock observability: elapsed time, simulated
     * cycles per second, and the parallel speedup (aggregate per-run
     * time over elapsed time — ~1.0 when serial, approaching the
     * worker count when the executor keeps every core busy). Pass
     * counted_all = false when @p curves covers only part of the timed
     * work (e.g. saturation searches ran inside the window too) — the
     * rate and speedup would undercount, so only runs and wall time
     * are printed.
     */
    void
    sweepStats(double elapsed_seconds,
               const std::vector<std::vector<RunResult>>& curves,
               bool counted_all = true)
    {
        std::int64_t runs = 0;
        double sim_cycles = 0.0;
        double run_seconds = 0.0;
        for (const auto& curve : curves) {
            for (const RunResult& r : curve) {
                ++runs;
                sim_cycles += static_cast<double>(r.totalCycles);
                run_seconds += r.wallSeconds;
            }
        }
        report_.addScalar("sweep.runs", static_cast<double>(runs));
        report_.addScalar("sweep.sim_cycles", sim_cycles);
        if (!counted_all) {
            std::printf("sweep: %lld curve runs + saturation searches "
                        "in %.2fs wall (run.threads=%d resolves to "
                        "%d)\n",
                        static_cast<long long>(runs), elapsed_seconds,
                        options_.threads,
                        resolveThreads(options_.threads));
            return;
        }
        std::printf("sweep: %lld runs, %.0fk simulated cycles in %.2fs "
                    "wall (%.0f kcycles/s, run.threads=%d resolves to "
                    "%d, speedup %.2fx)\n",
                    static_cast<long long>(runs), sim_cycles / 1e3,
                    elapsed_seconds,
                    elapsed_seconds > 0.0
                        ? sim_cycles / elapsed_seconds / 1e3
                        : 0.0,
                    options_.threads, resolveThreads(options_.threads),
                    elapsed_seconds > 0.0
                        ? run_seconds / elapsed_seconds
                        : 1.0);
    }

  private:
    static std::string
    slugify(const std::string& text)
    {
        std::string slug;
        for (const char c : text) {
            if (std::isalnum(static_cast<unsigned char>(c)))
                slug += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            else if (!slug.empty() && slug.back() != '_')
                slug += '_';
        }
        while (!slug.empty() && slug.back() == '_')
            slug.pop_back();
        return slug;
    }

    BenchInfo info_;
    bool full_;
    bool csv_;
    Config overrides_;
    RunOptions options_;
    Report report_;
};

/**
 * The shared bench driver: parses the command line, builds the
 * BenchContext, times the body, then emits the Report per out.format /
 * out.file. Returns the process exit code.
 */
inline int
benchMain(int argc, char** argv, const BenchInfo& info,
          const std::function<void(BenchContext&)>& body)
{
    bool full = false;
    bool csv = false;
    Config overrides;
    std::vector<std::string> tokens(argv + 1, argv + argc);
    for (const std::string& positional : overrides.applyArgs(tokens)) {
        if (positional == "--full") {
            full = true;
        } else if (positional == "--csv") {
            csv = true;
        } else if (positional == "--list-kernels") {
            // Machine-readable kernel registry dump: scripts (the
            // kernel-equivalence ctest, sweep drivers) derive their
            // kernel list from here instead of hard-coding it.
            for (const std::string& name : simKernelNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (positional == "--help" || positional == "-h") {
            std::printf("%s — %s\n", info.name, info.title);
            std::printf("usage: %s [--full] [--csv] [--list-kernels] "
                        "[key=value ...]\n"
                        "  out.format=json|csv|table  structured report "
                        "format (default table)\n"
                        "  out.file=PATH              report file "
                        "(default stdout)\n"
                        "  out.metrics=full|none      per-run metric "
                        "snapshots (default full)\n",
                        argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         positional.c_str());
            return 1;
        }
    }

    BenchContext ctx(info, full, csv, std::move(overrides));
    const WallTimer timer;
    body(ctx);
    ctx.report().setWallSeconds(timer.seconds());
    ctx.report().write(ctx.options());
    return 0;
}

}  // namespace frfc::bench

#endif  // FRFC_BENCH_BENCH_COMMON_HPP
