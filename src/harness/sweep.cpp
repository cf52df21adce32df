#include "harness/sweep.hpp"

#include <algorithm>
#include <map>

#include "harness/parallel.hpp"
#include "network/network.hpp"
#include "traffic/workload.hpp"

namespace frfc {

std::vector<RunResult>
latencyCurve(const Config& cfg, const std::vector<double>& loads,
             const RunOptions& opt)
{
    std::vector<Config> points;
    points.reserve(loads.size());
    for (double load : loads) {
        Config point = cfg;
        setWorkloadOffered(point, load);
        points.push_back(std::move(point));
    }
    return runExperiments(points, opt);
}

std::vector<std::vector<RunResult>>
latencyCurves(const std::vector<Config>& configs,
              const std::vector<double>& loads, const RunOptions& opt)
{
    std::vector<Config> points;
    points.reserve(configs.size() * loads.size());
    for (const Config& cfg : configs) {
        for (double load : loads) {
            Config point = cfg;
            setWorkloadOffered(point, load);
            points.push_back(std::move(point));
        }
    }
    const std::vector<RunResult> flat = runExperiments(points, opt);
    std::vector<std::vector<RunResult>> curves;
    curves.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        curves.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(
                                               i * loads.size()),
                            flat.begin() + static_cast<std::ptrdiff_t>(
                                               (i + 1) * loads.size()));
    }
    return curves;
}

RunResult
measureBaseLatency(const Config& cfg, const RunOptions& opt)
{
    return measureAtLoad(cfg, 0.02, opt);
}

RunResult
measureAtLoad(const Config& cfg, double load, const RunOptions& opt)
{
    // A lone serial run: it has the whole host to itself.
    Config point = withConcurrentRuns(cfg, 1);
    setWorkloadOffered(point, load);
    return runExperiment(point, opt);
}

namespace {

/** Saturation verdict of one measured point. */
bool
saturatedResult(const RunResult& r, const SaturationOptions& sat_opt)
{
    if (!r.complete)
        return true;
    return r.acceptedFraction < sat_opt.acceptRatio * r.offeredFraction;
}

}  // namespace

double
findSaturation(const Config& cfg, const RunOptions& run_opt,
               const SaturationOptions& sat_opt)
{
    // Memoized probe: bisection midpoints and grid loads can coincide
    // (and lo/hi are probed exactly once); a load that has been
    // simulated is never simulated again.
    std::map<double, bool> memo;
    auto saturated_at = [&](double load) {
        const auto it = memo.find(load);
        if (it != memo.end())
            return it->second;
        const bool sat =
            saturatedResult(measureAtLoad(cfg, load, run_opt), sat_opt);
        memo.emplace(load, sat);
        return sat;
    };

    double lo = sat_opt.lo;
    double hi = sat_opt.hi;

    if (sat_opt.gridProbe) {
        // Phase 1 — grid: probe lo, hi, and every standard load
        // strictly between them in one parallel round.
        std::vector<double> grid{lo};
        for (double load : standardLoads()) {
            if (load > lo && load < hi)
                grid.push_back(load);
        }
        grid.push_back(hi);

        std::vector<Config> points;
        points.reserve(grid.size());
        for (double load : grid) {
            Config point = cfg;
            setWorkloadOffered(point, load);
            points.push_back(std::move(point));
        }
        const std::vector<RunResult> probes =
            runExperiments(points, run_opt);
        for (std::size_t i = 0; i < grid.size(); ++i)
            memo.emplace(grid[i], saturatedResult(probes[i], sat_opt));

        // Phase 2 — bracket: the interval between the last unsaturated
        // grid load before the first saturated one and that first
        // saturated load contains the threshold.
        if (saturated_at(lo))
            return lo;  // already saturated at the lower bound
        if (!saturated_at(hi))
            return hi;  // never saturates inside the probe range
        for (std::size_t i = 1; i < grid.size(); ++i) {
            if (saturated_at(grid[i])) {
                lo = grid[i - 1];
                hi = grid[i];
                break;
            }
        }
    } else {
        if (saturated_at(lo))
            return lo;
        if (!saturated_at(hi))
            return hi;
    }

    // Phase 3 — refine: bisect the bracketing interval (serial; each
    // midpoint depends on the previous verdict).
    while (hi - lo > sat_opt.tolerance) {
        const double mid = (lo + hi) / 2.0;
        if (saturated_at(mid))
            hi = mid;
        else
            lo = mid;
    }
    return lo;
}

std::vector<double>
standardLoads()
{
    return {0.10, 0.20, 0.30, 0.40, 0.50, 0.55, 0.60, 0.65,
            0.70, 0.75, 0.80, 0.85, 0.90};
}

}  // namespace frfc
