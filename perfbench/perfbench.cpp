/**
 * @file
 * frfc_perfbench: the measuring half of the repository benchmark.
 *
 * Runs one named workload against the simulator library through its
 * public entry points only (makeNetwork, SimDriver::run, latencyCurves,
 * findSaturation, the metric and packet registries, the FrNetwork /
 * VcNetwork totals, ParallelKernel accessors, Report::toJson, and the
 * reservation-table, channel and generator classes). All timing is
 * taken around those calls, so the library itself carries no benchmark
 * instrumentation.
 *
 * Usage:
 *   frfc_perfbench --workload fig5_sweep|mesh32_steady|memory_faults
 *                  --seed N --seconds S [--trace 0|1] [--quick]
 *                  [--trace-file PATH]
 *
 * The workload's job is a fixed amount of simulated work derived from
 * the seed; it is repeated until S host seconds have passed, and every
 * repetition must reproduce the same simulated-output hash. The result
 * is one JSON object on stdout holding raw samples (job times, window
 * costs, set-up times), simulated statistics, the hashes, named
 * correctness checks and — with --trace 1 — per-layer metrics. run.py
 * reduces the samples to the metrics named in BENCHMARK.json.
 */

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "frfc/input_table.hpp"
#include "frfc/output_table.hpp"
#include "harness/json.hpp"
#include "harness/presets.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "network/fr_network.hpp"
#include "network/network.hpp"
#include "network/runner.hpp"
#include "network/vc_network.hpp"
#include "sim/channel.hpp"
#include "sim/parallel_kernel.hpp"
#include "topology/topology.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"
#include "traffic/workload.hpp"

using namespace frfc;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

[[noreturn]] void
die(const std::string& msg)
{
    std::fprintf(stderr, "frfc_perfbench: %s\n", msg.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Command line and resource caps

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;  ///< shortened jobs for the self-test
    std::string traceFile;
};

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value after " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char* end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || v[0] == '-' || *end != '\0' || o.seed == 0
                || o.seed > static_cast<std::uint64_t>(INT64_MAX))
                die("--seed must be a positive 63-bit integer, got '" + v
                    + "'");
            have_seed = true;
        } else if (arg == "--seconds") {
            const std::string v = value();
            char* end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0.0))
                die("--seconds must be positive, got '" + v + "'");
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                die("--trace must be 0 or 1, got '" + v + "'");
            o.trace = v == "1";
        } else if (arg == "--trace-file") {
            o.traceFile = value();
        } else if (arg == "--quick") {
            o.quick = true;
        } else {
            die("unknown argument '" + arg + "'");
        }
    }
    if (o.workload.empty() || !have_seed)
        die("usage: frfc_perfbench --workload NAME --seed N "
            "[--seconds S] [--trace 0|1] [--quick] [--trace-file PATH]");
    return o;
}

/** CPUs this process may run on (what `nproc` prints). */
int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Sweep threads and kernel shards: min(4, nproc), never "auto". */
int
workerCap()
{
    return std::min(4, availableCpus());
}

/**
 * Moves the calling thread across the allowed CPUs (at most
 * workerCap() of them), one per step, and restores the original mask
 * when destroyed. Single-threaded jobs use it, one CPU per repetition,
 * so that every run samples the CPUs alike: on a shared host one CPU
 * can be much slower than the others, and where the scheduler happens
 * to place a single-threaded run would otherwise decide its result.
 * Threads created while it holds a single-CPU mask inherit that mask,
 * so multi-threaded jobs must not use it.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE
                        && static_cast<int>(cpus_.size()) < workerCap();
             ++c)
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(original_), &original_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /** Run on the CPU for step @p step until the next call. */
    void
    moveTo(int step)
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[static_cast<std::size_t>(step) % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

/** Peak resident set of this process (VmHWM), MiB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Heap bytes currently allocated (glibc malloc accounting). */
double
heapBytes()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// ---------------------------------------------------------------------
// Simulated-output hashing

/** FNV-1a over a canonical byte stream of simulated results. */
class Hasher
{
  public:
    void
    bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void i64(std::int64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

void
hashSnapshot(Hasher& h, const MetricsSnapshot& snap)
{
    h.u64(snap.size());
    for (const MetricSample& s : snap.samples()) {
        h.str(s.path);
        h.f64(s.value);
    }
}

void
hashClass(Hasher& h, const ClassStats& c)
{
    h.i64(c.created);
    h.i64(c.delivered);
    h.f64(c.avgLatency);
    h.f64(c.p50Latency);
    h.f64(c.p95Latency);
    h.f64(c.p99Latency);
}

/** Every field RunResult::bitIdentical compares. */
void
hashRun(Hasher& h, const RunResult& r)
{
    for (const double v :
         {r.offered, r.offeredFraction, r.avgLatency, r.ci95, r.minLatency,
          r.maxLatency, r.p50Latency, r.p95Latency, r.p99Latency,
          r.accepted, r.acceptedFraction, r.poolFullFraction,
          r.poolAvgOccupancy})
        h.f64(v);
    h.u64(r.complete ? 1 : 0);
    h.i64(r.warmupCycles);
    h.i64(r.totalCycles);
    h.i64(r.packetsDelivered);
    h.u64(r.hasClasses ? 1 : 0);
    hashClass(h, r.requestStats);
    hashClass(h, r.replyStats);
    hashSnapshot(h, r.metrics);
}

/** Registry counts and the sampled latency distribution. */
void
hashRegistry(Hasher& h, const PacketRegistry& reg)
{
    h.i64(reg.packetsCreated());
    h.i64(reg.packetsDelivered());
    h.i64(reg.flitsDelivered());
    const Accumulator& lat = reg.sampleLatency();
    h.i64(lat.count());
    h.f64(lat.count() > 0 ? lat.mean() : 0.0);
    const Histogram& hist = reg.sampleLatencyHistogram();
    h.i64(hist.total());
    for (int i = 0; i < hist.bucketCount(); ++i)
        h.i64(hist.bucket(i));
}

// ---------------------------------------------------------------------
// Tracing: spans recorded around the calls into each layer

struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int lane = 0;
    bool fromRunResult = false;  ///< duration from RunResult::wallSeconds
};

class Tracer
{
  public:
    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    int
    begin(const std::string& name)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.start_us = nowUs();
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end_us = nowUs();
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    /** A completed span whose timing comes from elsewhere. */
    void
    add(Span s)
    {
        if (on_)
            spans_.push_back(std::move(s));
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now()
                                                         - origin_)
            .count();
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    bool on_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer g_tracer;

/** RAII span. */
class Scope
{
  public:
    explicit Scope(const std::string& name) : id_(g_tracer.begin(name)) {}
    ~Scope() { g_tracer.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    int id_;
};

// ---------------------------------------------------------------------
// Shared result of a workload

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** Per-layer values; counts are per simulated node-cycle unless the
 *  README says otherwise. Metrics a workload cannot observe stay 0. */
using LayerMap = std::map<std::string, double>;

struct Outcome
{
    std::vector<double> repWall;          ///< job host seconds per rep
    std::vector<std::string> repHash;     ///< simulated hash per rep
    std::vector<double> setup;            ///< makeNetwork seconds
    std::vector<double> frWindowNs;       ///< ns per node-cycle samples
    std::vector<double> vcWindowNs;
    std::vector<std::pair<std::string, double>> sim;  ///< simulated
    std::vector<Check> checks;
    LayerMap layer;
    int threads = 1;
    int shards = 1;
    std::int64_t simulatedRuns = 0;  ///< runs covered by the checks
    /** Peak RSS when the first repetition ended: later repetitions
     *  grow the heap by varying amounts, and how many fit in a run
     *  depends on the host's speed. */
    double peakRssMb = 0.0;
};

/** Traced runs time one untraced repetition, then the traced one. */
void
noteTraceOverhead(Outcome& out)
{
    out.layer["trace.overhead_frac"] =
        out.repWall[0] > 0.0 ? out.repWall[1] / out.repWall[0] - 1.0 : 0.0;
}

Clock::time_point
deadlineAfter(double seconds)
{
    return Clock::now()
        + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
}

void
addCheck(Outcome& out, const std::string& name, bool ok,
         const std::string& detail = {})
{
    out.checks.push_back(Check{name, ok, detail});
}

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** @p builds samples of the host seconds makeNetwork takes to build
 *  every config of @p cfgs once. */
std::vector<double>
timeSetup(const std::vector<Config>& cfgs, int builds)
{
    std::vector<double> samples;
    for (int b = 0; b < builds; ++b) {
        double total = 0.0;
        for (const Config& cfg : cfgs) {
            const auto t0 = Clock::now();
            auto net = makeNetwork(cfg);
            total += secondsSince(t0);
        }
        samples.push_back(total);
    }
    return samples;
}

/** Heap bytes a built network holds, per node. */
double
bytesPerNode(const Config& cfg)
{
    const double before = heapBytes();
    auto net = makeNetwork(cfg);
    const double after = heapBytes();
    return (after - before)
        / static_cast<double>(net->topology().numNodes());
}

// ---------------------------------------------------------------------
// Figure 5 configurations and the paper's reported numbers

struct Fig5Config
{
    const char* name;
    const char* preset;
    double paperSaturationPct;
    double paperBaseLatency;
};

/** Nodes of the 8x8 mesh every Figure 5 config runs on. */
constexpr int kFig5Nodes = 64;

/** Positions in kFig5. */
enum Fig5Index : std::size_t { kVc8, kVc16, kFr6, kFr13 };

constexpr Fig5Config kFig5[] = {
    {"VC8", "vc8", 63.0, 32.0},
    {"VC16", "vc16", 80.0, 32.0},
    {"FR6", "fr6", 77.0, 27.0},
    {"FR13", "fr13", 85.0, 27.0},
};

Config
fig5Config(const Fig5Config& c, std::uint64_t seed)
{
    Config cfg = baseConfig();
    applyFastControl(cfg);
    cfg.set(kWorkloadPacketLengthKey, 5);
    applyPreset(cfg, c.preset);
    cfg.set("seed", static_cast<std::int64_t>(seed));
    return cfg;
}

/** The fig5 bench's quick RunOptions. */
RunOptions
fig5Options(bool quick, int threads)
{
    RunOptions opt;
    opt.samplePackets = quick ? 300 : 1500;
    opt.minWarmup = quick ? 500 : 2000;
    opt.maxWarmup = quick ? 1000 : 5000;
    opt.maxCycles = quick ? 12000 : 80000;
    opt.threads = threads;
    opt.outMetrics = "full";
    return opt;
}

std::vector<double>
fig5Loads(bool quick)
{
    if (quick)
        return {0.10, 0.50, 0.90};
    return {0.10, 0.30, 0.45, 0.55, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90};
}

// ---------------------------------------------------------------------
// Workload: fig5_sweep

struct Fig5Job
{
    std::vector<std::vector<RunResult>> curves;
    std::vector<double> saturation;  ///< fraction of capacity per config
    double sweepS = 0.0;
    double saturationS = 0.0;
    double reportS = 0.0;
    double reportBytes = 0.0;
    std::uint64_t hash = 0;
};

/** Lay per-run spans (known durations only) onto @p lanes lanes in
 *  submission order, as the executor's first-free-worker scheduling
 *  would; start times are therefore approximate. */
void
addRunSpans(const std::vector<std::vector<RunResult>>& curves,
            const std::vector<Config>& cfgs, double sweep_start_us,
            int parent, int lanes)
{
    std::vector<double> lane_end(static_cast<std::size_t>(lanes),
                                 sweep_start_us);
    for (std::size_t i = 0; i < curves.size(); ++i) {
        for (const RunResult& r : curves[i]) {
            auto it = std::min_element(lane_end.begin(), lane_end.end());
            Span s;
            s.name = std::string("network.run ")
                + cfgs[i].get<std::string>("scheme") + " "
                + kFig5[i].name + " @"
                + std::to_string(static_cast<int>(
                    std::lround(r.offeredFraction * 100)))
                + "%";
            s.start_us = *it;
            s.end_us = *it + r.wallSeconds * 1e6;
            s.parent = parent;
            s.lane = 1 + static_cast<int>(it - lane_end.begin());
            s.fromRunResult = true;
            *it = s.end_us;
            g_tracer.add(s);
        }
    }
}

Fig5Job
runFig5Job(const Options& o, const std::vector<Config>& cfgs,
           const RunOptions& opt)
{
    Fig5Job job;
    const auto loads = fig5Loads(o.quick);
    {
        const int span = g_tracer.begin("harness.sweep");
        const auto t0 = Clock::now();
        job.curves = latencyCurves(cfgs, loads, opt);
        job.sweepS = secondsSince(t0);
        g_tracer.end(span);
        if (span >= 0)
            addRunSpans(job.curves, cfgs,
                        g_tracer.spans()[static_cast<std::size_t>(span)]
                            .start_us,
                        span, opt.threads);
    }
    {
        Scope span("harness.saturation");
        const auto t0 = Clock::now();
        for (const Config& cfg : cfgs)
            job.saturation.push_back(findSaturation(cfg, opt));
        job.saturationS = secondsSince(t0);
    }
    {
        Scope span("harness.report.write");
        const auto t0 = Clock::now();
        Report report("fig5_latency_5flit",
                      "Figure 5: latency vs offered traffic, 5-flit "
                      "packets, fast control");
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            ReportCurve& rc = report.addCurve(kFig5[i].name, cfgs[i]);
            rc.runs = job.curves[i];
            report.addScalar(std::string("measured.")
                                 + kFig5[i].preset + "_saturation",
                             job.saturation[i]);
        }
        const std::string text = report.toJson();
        job.reportBytes = static_cast<double>(text.size());
        job.reportS = secondsSince(t0);
    }
    Hasher h;
    for (const auto& curve : job.curves)
        for (const RunResult& r : curve)
            hashRun(h, r);
    for (const double s : job.saturation)
        h.f64(s);
    job.hash = h.value();
    return job;
}

struct PaperError
{
    double saturationPp = 0.0;
    double baseLatency = 0.0;
};

PaperError
paperError(const std::vector<std::vector<RunResult>>& curves,
           const std::vector<double>& saturation)
{
    PaperError e;
    const std::size_t n = curves.size();
    for (std::size_t i = 0; i < n; ++i) {
        e.saturationPp +=
            std::fabs(saturation[i] * 100.0 - kFig5[i].paperSaturationPct);
        e.baseLatency += std::fabs(curves[i].front().avgLatency
                                   - kFig5[i].paperBaseLatency);
    }
    e.saturationPp /= static_cast<double>(n);
    e.baseLatency /= static_cast<double>(n);
    return e;
}

/** Reads the increase of one counter family (metric path suffix). */
using CounterReader = std::function<double(const std::string&)>;

/** Router, input-table and source rates per node-cycle, from counter
 *  increases over @p fr_nc (FR) and @p vc_nc (VC) node-cycles. */
void
routerLayers(LayerMap& L, const CounterReader& fr, double fr_nc,
             const CounterReader& vc, double vc_nc)
{
    auto per = [](double v, double nc) { return nc > 0.0 ? v / nc : 0.0; };
    const double res = fr("reservations");
    const double den = fr("reservations_denied");
    L["frfc.router.reservations"] = per(res, fr_nc);
    L["frfc.router.reservations_denied"] = per(den, fr_nc);
    L["frfc.router.reserve_success_ratio"] =
        res + den > 0.0 ? res / (res + den) : 0.0;
    for (const auto& [name, suffix] :
         std::vector<std::pair<std::string, std::string>>{
             {"frfc.router.sched_retries", "sched.retries"},
             {"frfc.router.horizon_full", "horizon_full"},
             {"frfc.router.advance_credits", "advance_credits"},
             {"frfc.router.ctrl_forwarded", "ctrl.forwarded"},
             {"frfc.router.data_forwarded", "data.forwarded"},
             {"frfc.input_table.bypasses", "bypasses"},
             {"frfc.input_table.parked", "parked"},
             {"traffic.packets_generated", "packets_generated"}})
        L[name] = per(fr(suffix), fr_nc);
    for (const char* suffix :
         {"vc_alloc_failures", "credit_stalls", "data_flits"})
        L[std::string("vc.router.") + suffix] =
            per(vc(suffix), vc_nc);
}

void
fig5Layers(Outcome& out, const Fig5Job& job, int threads)
{
    LayerMap& L = out.layer;
    std::int64_t runs = 0;
    std::int64_t saturated = 0;
    double cycles = 0.0;
    double busy = 0.0;
    double longest = 0.0;
    MetricsSnapshot fr_ref;
    MetricsSnapshot vc_ref;
    double fr_ref_nc = 0.0;
    double vc_ref_nc = 0.0;
    for (std::size_t i = 0; i < job.curves.size(); ++i) {
        for (const RunResult& r : job.curves[i]) {
            ++runs;
            // findSaturation's criterion: incomplete, or accepting less
            // than 90% of the offered load.
            saturated +=
                !r.complete || r.acceptedFraction < 0.9 * r.offeredFraction;
            cycles += static_cast<double>(r.totalCycles);
            busy += r.wallSeconds;
            longest = std::max(longest, r.wallSeconds);
        }
        // Router counters from the 30%-load point of FR6 and VC8, the
        // first ladder point with real contention yet below every
        // config's saturation load.
        const RunResult& mid = job.curves[i][std::min<std::size_t>(
            1, job.curves[i].size() - 1)];
        const double nc =
            static_cast<double>(mid.totalCycles) * kFig5Nodes;
        if (i == kFr6) {
            fr_ref = mid.metrics;
            fr_ref_nc = nc;
        } else if (i == kVc8) {
            vc_ref = mid.metrics;
            vc_ref_nc = nc;
        }
    }
    L["network.runner.runs"] = static_cast<double>(runs);
    L["network.runner.saturated_runs"] =
        static_cast<double>(saturated);
    L["network.runner.cycles_simulated"] = cycles;
    L["harness.sweep.busy_frac"] =
        job.sweepS > 0.0 ? busy / (threads * job.sweepS) : 0.0;
    L["harness.sweep.longest_run_s"] = longest;
    L["harness.saturation_s"] = job.saturationS;
    L["harness.report.write_s"] = job.reportS;
    L["harness.report.bytes"] = job.reportBytes;

    routerLayers(
        L, [&](const std::string& k) { return fr_ref.sumMatching(k); },
        fr_ref_nc,
        [&](const std::string& k) { return vc_ref.sumMatching(k); },
        vc_ref_nc);
}

/** Simulated results of the fig5 job (identical in every repetition). */
void
fig5Simulated(Outcome& out, const Fig5Job& job)
{
    // Tail latency at the 30% load point, below every config's
    // saturation load.
    const std::size_t mid = std::min<std::size_t>(1, job.curves[0].size() - 1);
    out.sim.emplace_back("fr.sim_latency_p99_cycles",
                         job.curves[kFr6][mid].p99Latency);
    out.sim.emplace_back("vc.sim_latency_p99_cycles",
                         job.curves[kVc8][mid].p99Latency);
    const PaperError err = paperError(job.curves, job.saturation);
    out.sim.emplace_back("paper.saturation_err_pp", err.saturationPp);
    out.sim.emplace_back("paper.base_latency_err_cycles", err.baseLatency);
    out.layer["paper.saturation_err_pp"] = err.saturationPp;
    out.layer["paper.base_latency_err_cycles"] = err.baseLatency;
}

// ---------------------------------------------------------------------
// Steady-state window scheme (mesh32_steady, memory_faults)

struct WindowPlan
{
    Cycle warmup = 0;
    Cycle window = 0;
    int windows = 0;
    bool drain = false;  ///< stop generation and drain to empty after
    Cycle drainBudget = 0;
};

/** Layer counters read through the public API at one instant. */
struct Observed
{
    MetricsSnapshot counters;
    std::int64_t created = 0;
    std::int64_t dropped = 0;
    std::int64_t specDropped = 0;
    std::int64_t specEvicted = 0;
    std::int64_t retransmits = 0;
    std::int64_t dupDiscarded = 0;
};

Observed
observe(NetworkModel& net)
{
    Observed o;
    o.counters = net.metrics().snapshot();
    o.created = net.registry().packetsCreated();
    if (auto* fr = dynamic_cast<FrNetwork*>(&net)) {
        o.dropped = fr->totalDropped();
        o.specDropped = fr->totalSpecDropped();
        o.specEvicted = fr->totalSpecEvicted();
        o.retransmits = fr->totalRetransmits();
        o.dupDiscarded = fr->totalDupDiscarded();
    } else if (auto* vc = dynamic_cast<VcNetwork*>(&net)) {
        o.dropped = vc->totalPoisoned();
        o.retransmits = vc->totalRetransmits();
        o.dupDiscarded = vc->totalDupDiscarded();
    }
    return o;
}

struct SchemeRun
{
    std::vector<double> windowNs;  ///< host ns per node-cycle, per window
    double p99 = 0.0;
    std::uint64_t hash = 0;
    std::int64_t created = 0;
    std::int64_t delivered = 0;
    bool drained = true;
    // Layer observations over the measured windows (traced runs).
    std::int64_t ticks = 0;
    Cycle idleSkipped = 0;
    std::int64_t parWindows = 0;
    Cycle lookahead = 0;
    double tickImbalance = 0.0;
    double measuredCycles = 0.0;
    double measuredNodeCycles = 0.0;
    double measuredS = 0.0;
    Observed begin;  ///< counters when the windows started
    Observed end;    ///< ... and when they ended
    std::size_t instruments = 0;
    double snapshotS = 0.0;

    /** Increase of a counter family (path suffix) over the windows. */
    double
    delta(const std::string& suffix) const
    {
        return end.counters.sumMatching(suffix)
            - begin.counters.sumMatching(suffix);
    }
};

/**
 * Build @p cfg, warm it up, then run plan.windows equal windows through
 * SimDriver::run, timing each; optionally drain to empty afterwards.
 * The hash folds the registry counts after every window and the final
 * metric snapshot, so any change in simulated behaviour shows.
 */
SchemeRun
runWindows(const Config& cfg, const WindowPlan& plan,
           const std::string& tag)
{
    SchemeRun out;
    std::unique_ptr<NetworkModel> net;
    {
        Scope span("network.build " + tag);
        net = makeNetwork(cfg);
    }
    SimDriver& drv = net->driver();
    PacketRegistry& reg = net->registry();
    const int nodes = net->topology().numNodes();
    Hasher h;

    net->setGenerating(true);
    {
        Scope span("sim.kernel.run warmup " + tag);
        drv.run(plan.warmup);
    }
    reg.startSampling(std::int64_t{1} << 40);

    const bool layers = g_tracer.enabled();
    if (layers)
        out.begin = observe(*net);
    const std::int64_t ticks0 = drv.ticksExecuted();
    const Cycle idle0 = drv.idleCyclesSkipped();
    ParallelKernel* par = net->parallelKernel();
    const std::int64_t win0 = par != nullptr ? par->windowsExecuted() : 0;
    std::vector<std::int64_t> shard_ticks0;
    if (par != nullptr)
        shard_ticks0 = par->shardTicks();

    const auto m0 = Clock::now();
    out.windowNs.reserve(static_cast<std::size_t>(plan.windows));
    for (int w = 0; w < plan.windows; ++w) {
        const int id = g_tracer.begin("sim.kernel.run " + tag);
        const auto t0 = Clock::now();
        drv.run(plan.window);
        const auto t1 = Clock::now();
        g_tracer.end(id);
        out.windowNs.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count()
            / (static_cast<double>(plan.window) * nodes));
        hashRegistry(h, reg);
    }
    out.measuredS = secondsSince(m0);
    out.measuredCycles = static_cast<double>(plan.window) * plan.windows;
    out.measuredNodeCycles = out.measuredCycles * nodes;
    out.ticks = drv.ticksExecuted() - ticks0;
    out.idleSkipped = drv.idleCyclesSkipped() - idle0;
    if (layers)
        out.end = observe(*net);
    if (par != nullptr) {
        out.parWindows = par->windowsExecuted() - win0;
        out.lookahead = par->lookahead();
        const auto ticks = par->shardTicks();
        double peak = 0.0;
        double sum = 0.0;
        for (std::size_t s = 0; s < ticks.size(); ++s) {
            const double d =
                static_cast<double>(ticks[s] - shard_ticks0[s]);
            peak = std::max(peak, d);
            sum += d;
        }
        const double mean = sum / static_cast<double>(ticks.size());
        out.tickImbalance = mean > 0.0 ? peak / mean : 1.0;
    }
    const Histogram& hist = reg.sampleLatencyHistogram();
    out.p99 = hist.total() > 0 ? hist.quantile(0.99) : 0.0;

    if (plan.drain) {
        Scope span("sim.kernel.run drain " + tag);
        net->setGenerating(false);
        out.drained = drv.runUntil(
            [&reg] { return reg.packetsInFlight() == 0; },
            plan.drainBudget);
    }
    out.created = reg.packetsCreated();
    out.delivered = reg.packetsDelivered();
    h.i64(out.created);
    h.i64(out.delivered);
    h.i64(drv.now());

    {
        Scope span("stats.snapshot " + tag);
        const auto t0 = Clock::now();
        net->finalizeMetrics();
        hashSnapshot(h, net->metrics().snapshot());
        out.snapshotS = secondsSince(t0);
    }
    out.instruments = net->metrics().size();
    out.hash = h.value();
    return out;
}

struct WindowWorkload
{
    Config fr;
    Config vc;
    WindowPlan plan;
};

WindowWorkload
mesh32Workload(const Options& o, int shards)
{
    WindowWorkload w;
    for (Config* cfg : {&w.fr, &w.vc}) {
        *cfg = baseConfig();
        applyPreset(*cfg, cfg == &w.fr ? "fr6" : "vc8");
        applyPreset(*cfg, "mesh32");
        cfg->set(kWorkloadOfferedKey, 0.30);
        cfg->set("seed", static_cast<std::int64_t>(o.seed));
        cfg->set("sim.kernel", "parallel");
        cfg->set("sim.shards", shards);
    }
    if (o.quick) {
        for (Config* cfg : {&w.fr, &w.vc}) {
            cfg->set("size_x", 8);
            cfg->set("size_y", 8);
        }
    }
    w.plan.warmup = o.quick ? 200 : 600;
    w.plan.window = o.quick ? 16 : 24;
    w.plan.windows = o.quick ? 20 : 100;
    return w;
}

WindowWorkload
memoryWorkload(const Options& o)
{
    WindowWorkload w;
    for (Config* cfg : {&w.fr, &w.vc}) {
        *cfg = baseConfig();
        applyFastControl(*cfg);
        cfg->set(kWorkloadKindKey, "memory");
        cfg->set(kWorkloadMemDirectoriesKey, 4);
        cfg->set(kWorkloadMemHotspotKey, 0.25);
        applyPreset(*cfg, cfg == &w.fr ? "fr6" : "vc8");
        cfg->set(kWorkloadOfferedKey, 0.10);
        cfg->set("fault.recovery", 1);
        cfg->set("fault.ack_timeout", 400);
        cfg->set("fault.data_drop_rate", 0.02);
        cfg->set("seed", static_cast<std::int64_t>(o.seed));
        cfg->set("sim.kernel", "event");
    }
    w.fr.set("fr.speculative", 1);
    w.plan.warmup = o.quick ? 500 : 2000;
    w.plan.window = o.quick ? 100 : 200;
    w.plan.windows = o.quick ? 20 : 100;
    w.plan.drain = true;
    w.plan.drainBudget = 200000;
    return w;
}

// ---------------------------------------------------------------------
// Layer replays: the table, channel and generator classes driven
// directly with the operation mix the workload's counters report.

struct Replay
{
    double findNs = 0.0;          ///< OutputReservationTable::findDeparture
    double reserveCreditNs = 0.0; ///< reserve() or credit()
    double advanceNs = 0.0;       ///< OutputReservationTable::advance
    double flowNs = 0.0;          ///< input table, per data flit
    double transportNs = 0.0;     ///< Channel push + drain, per item
    double generateNs = 0.0;      ///< PacketGenerator::generate
};

/** Mean cost of one steady_clock::now() pair, subtracted from timed
 *  intervals so per-call figures are not dominated by the clock. */
double
clockOverheadNs()
{
    constexpr int kReps = 20000;
    std::vector<double> samples;
    for (int r = 0; r < 5; ++r) {
        double total = 0.0;
        for (int i = 0; i < kReps; ++i) {
            const auto a = Clock::now();
            const auto b = Clock::now();
            total += std::chrono::duration<double, std::nano>(b - a).count();
        }
        samples.push_back(total / kReps);
    }
    return medianOf(samples);
}

double
ns(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/**
 * Output-table replay: per simulated cycle, one advance() per table,
 * then findDeparture attempts, reservations and advance credits at
 * the per-table rates the workload measured (@p find_rate etc. are
 * per output table per cycle). Credits return a buffer a few cycles
 * after its reservation departs, as the downstream scheduler would.
 */
void
replayOutputTables(Replay& r, const Config& cfg, double find_rate,
                   double reserve_rate, double credit_rate,
                   std::uint64_t seed, Cycle cycles, double overhead)
{
    const int horizon = static_cast<int>(cfg.getInt("horizon", 32));
    const int buffers = static_cast<int>(cfg.getInt("data_buffers", 6));
    const Cycle latency = cfg.getInt("data_link_latency", 4);
    constexpr int kTables = 16;
    std::vector<std::unique_ptr<OutputReservationTable>> tables;
    for (int t = 0; t < kTables; ++t)
        tables.push_back(std::make_unique<OutputReservationTable>(
            horizon, buffers, latency));
    Rng rng(seed, 0x7e57);
    auto coin = [&rng](double p) {
        return static_cast<double>(rng.nextBounded(1u << 20))
            < p * static_cast<double>(1u << 20);
    };
    const double reserve_given_find =
        find_rate > 0.0 ? std::min(1.0, reserve_rate / find_rate) : 0.0;
    const double credit_given_reserve =
        reserve_rate > 0.0 ? std::min(1.0, credit_rate / reserve_rate)
                           : 0.0;
    // Pending credits per table: (apply cycle, free-from cycle).
    std::vector<std::vector<std::pair<Cycle, Cycle>>> pending(kTables);
    double find_t = 0.0, rc_t = 0.0, adv_t = 0.0;
    std::int64_t finds = 0, rcs = 0, advs = 0;
    for (Cycle now = 1; now <= cycles; ++now) {
        for (int t = 0; t < kTables; ++t) {
            OutputReservationTable& tab = *tables[static_cast<std::size_t>(t)];
            auto a0 = Clock::now();
            tab.advance(now);
            auto a1 = Clock::now();
            adv_t += ns(a0, a1) - overhead;
            ++advs;
            auto& pend = pending[static_cast<std::size_t>(t)];
            for (std::size_t i = 0; i < pend.size();) {
                if (pend[i].first <= now) {
                    const Cycle from = std::max(pend[i].second, now);
                    a0 = Clock::now();
                    tab.credit(from);
                    a1 = Clock::now();
                    rc_t += ns(a0, a1) - overhead;
                    ++rcs;
                    pend[i] = pend.back();
                    pend.pop_back();
                } else {
                    ++i;
                }
            }
            double budget = find_rate;
            while (budget > 0.0) {
                const bool go = budget >= 1.0 || coin(budget);
                budget -= 1.0;
                if (!go)
                    break;
                const Cycle min_depart =
                    now + 1 + static_cast<Cycle>(rng.nextBounded(4));
                a0 = Clock::now();
                const Cycle d = tab.findDeparture(
                    min_depart, [](Cycle) { return true; });
                a1 = Clock::now();
                find_t += ns(a0, a1) - overhead;
                ++finds;
                if (d != kInvalidCycle && coin(reserve_given_find)) {
                    a0 = Clock::now();
                    tab.reserve(d);
                    a1 = Clock::now();
                    rc_t += ns(a0, a1) - overhead;
                    ++rcs;
                    if (coin(credit_given_reserve)) {
                        const Cycle free_from =
                            d + latency + 1
                            + static_cast<Cycle>(rng.nextBounded(3));
                        pend.emplace_back(d + latency, free_from);
                    } else {
                        // The downstream buffer is returned anyway so the
                        // pool cannot leak; untimed.
                        pend.emplace_back(d + latency + 2, d + latency + 2);
                    }
                }
            }
        }
    }
    r.findNs = finds > 0 ? std::max(0.0, find_t / finds) : 0.0;
    r.reserveCreditNs = rcs > 0 ? std::max(0.0, rc_t / rcs) : 0.0;
    r.advanceNs = advs > 0 ? std::max(0.0, adv_t / advs) : 0.0;
}

/**
 * Input-table replay: data flits at @p flit_rate per input per cycle,
 * each reserved, accepted on arrival and departed through the table —
 * timing the table's whole per-cycle work (advance included) and
 * charging it per flit.
 */
void
replayInputTable(Replay& r, const Config& cfg, double flit_rate,
                 std::uint64_t seed, Cycle cycles)
{
    const int horizon = static_cast<int>(cfg.getInt("horizon", 32));
    const int buffers = static_cast<int>(cfg.getInt("data_buffers", 6));
    InputReservationTable tab(horizon, buffers);
    Rng rng(seed, 0x1ab1e);
    std::vector<InputReservationTable::Departure> departed;
    std::vector<Cycle> arrivals;  // scheduled, not yet accepted
    std::int64_t flits = 0;
    PacketId next_id = 1;
    const auto t0 = Clock::now();
    for (Cycle now = 1; now <= cycles; ++now) {
        tab.advance(now);
        for (std::size_t i = 0; i < arrivals.size();) {
            if (arrivals[i] == now) {
                Flit f;
                f.packet = next_id++;
                f.head = f.tail = true;
                f.packetLength = 1;
                tab.acceptFlit(now, f);
                arrivals[i] = arrivals.back();
                arrivals.pop_back();
            } else {
                ++i;
            }
        }
        tab.takeDeparturesInto(now, departed);
        flits += static_cast<std::int64_t>(departed.size());
        // At most one arrival per cycle (one data link per input), and
        // each flit leaves within 3 cycles of arriving, so at most 3
        // buffers are ever held: the pool cannot run dry.
        const bool birth =
            static_cast<double>(rng.nextBounded(1u << 20))
            < flit_rate * static_cast<double>(1u << 20);
        if (birth) {
            const Cycle arrival = now + 2;
            const Cycle depart =
                arrival + 1 + static_cast<Cycle>(rng.nextBounded(3));
            if (tab.departSlotFree(depart)) {
                tab.recordReservation(
                    now, arrival, depart,
                    static_cast<PortId>(rng.nextBounded(kNumPorts)));
                arrivals.push_back(arrival);
            }
        }
    }
    const double total = ns(t0, Clock::now());
    r.flowNs = flits > 0 ? total / static_cast<double>(flits) : 0.0;
}

/** Channel transport: push then drain through a data-link channel. */
void
replayChannel(Replay& r, Cycle cycles)
{
    Channel<Flit> ch("replay", 4, 1);
    std::vector<Flit> drained;
    std::int64_t items = 0;
    const auto t0 = Clock::now();
    for (Cycle now = 1; now <= cycles; ++now) {
        Flit f;
        f.packet = static_cast<PacketId>(now);
        ch.push(now, f);
        ch.drainInto(now, drained);
        items += static_cast<std::int64_t>(drained.size());
    }
    const double total = ns(t0, Clock::now());
    r.transportNs = items > 0 ? total / static_cast<double>(items) : 0.0;
}

/** PacketGenerator::generate for every node of @p cfg's workload. */
void
replayGenerator(Replay& r, const Config& cfg, std::uint64_t seed,
                Cycle cycles)
{
    const auto topo = makeTopology(cfg);
    const auto pattern = makePattern(cfg, *topo);
    const double offered =
        workloadOfferedFraction(cfg) * topo->uniformCapacity();
    auto gens = makeGenerators(cfg, *topo, pattern.get(), offered);
    std::vector<Rng> rngs;
    for (std::size_t n = 0; n < gens.size(); ++n)
        rngs.emplace_back(seed, 0x9e00 + n);
    std::int64_t calls = 0;
    const auto t0 = Clock::now();
    for (Cycle now = 0; now < cycles; ++now) {
        for (std::size_t n = 0; n < gens.size(); ++n) {
            WorkloadContext ctx{now, static_cast<NodeId>(n), &rngs[n]};
            gens[n]->generate(ctx);
            ++calls;
        }
    }
    const double total = ns(t0, Clock::now());
    r.generateNs = calls > 0 ? total / static_cast<double>(calls) : 0.0;
}

/** Layer metrics for one FR/VC window run pair. */
void
windowLayers(Outcome& out, const SchemeRun& fr, const SchemeRun& vc,
             const Config& fr_cfg, const Options& o)
{
    LayerMap& L = out.layer;
    const double nc = fr.measuredNodeCycles;
    auto per = [nc](double v) { return nc > 0.0 ? v / nc : 0.0; };
    routerLayers(
        L, [&](const std::string& k) { return fr.delta(k); }, nc,
        [&](const std::string& k) { return vc.delta(k); },
        vc.measuredNodeCycles);
    // Increase of one Observed total over a run's windows.
    auto grew = [](const SchemeRun& r, std::int64_t Observed::*total) {
        return static_cast<double>(r.end.*total - r.begin.*total);
    };
    L["frfc.spec.dropped"] = per(grew(fr, &Observed::specDropped));
    L["frfc.spec.evicted"] = per(grew(fr, &Observed::specEvicted));

    L["sim.kernel.ticks_per_node_cycle"] =
        per(static_cast<double>(fr.ticks));
    L["sim.kernel.ns_per_tick"] =
        fr.ticks > 0 ? fr.measuredS * 1e9 / static_cast<double>(fr.ticks)
                     : 0.0;
    L["sim.kernel.idle_cycles_skipped"] =
        fr.measuredCycles > 0.0
            ? static_cast<double>(fr.idleSkipped) / fr.measuredCycles
            : 0.0;
    L["sim.parallel.windows"] = static_cast<double>(fr.parWindows);
    L["sim.parallel.lookahead_cycles"] = static_cast<double>(fr.lookahead);
    L["sim.parallel.tick_imbalance"] = fr.tickImbalance;
    L["sim.fault.data_dropped"] = per(grew(fr, &Observed::dropped));

    // Recovery counters of both schemes over their windows.
    const double all_nc = nc + vc.measuredNodeCycles;
    const double created =
        grew(fr, &Observed::created) + grew(vc, &Observed::created);
    const double retx =
        grew(fr, &Observed::retransmits) + grew(vc, &Observed::retransmits);
    const double dups = grew(fr, &Observed::dupDiscarded)
        + grew(vc, &Observed::dupDiscarded);
    L["network.recovery.retransmits"] = all_nc > 0.0 ? retx / all_nc : 0.0;
    L["network.recovery.retransmit_ratio"] =
        created > 0.0 ? retx / created : 0.0;
    L["network.sink.dup_discarded"] = all_nc > 0.0 ? dups / all_nc : 0.0;
    L["stats.instruments"] =
        static_cast<double>(fr.instruments + vc.instruments);
    L["stats.snapshot_s"] = fr.snapshotS + vc.snapshotS;

    // Replays at this workload's per-table rates: a router has
    // kNumPorts output and kNumPorts input tables.
    const double res = fr.delta("reservations");
    const double den = fr.delta("reservations_denied");
    const double credits = fr.delta("advance_credits");
    const double data = fr.delta("data.forwarded");
    const double tables_per_nc = kNumPorts;
    const double find_rate = (res + den) / nc / tables_per_nc;
    const double reserve_rate = res / nc / tables_per_nc;
    const double credit_rate = credits / nc / tables_per_nc;
    const double flit_rate = data / nc / tables_per_nc;
    Replay rp;
    const Cycle replay_cycles = o.quick ? 2000 : 40000;
    {
        Scope span("frfc.output_table.replay");
        replayOutputTables(rp, fr_cfg, find_rate, reserve_rate,
                           credit_rate, o.seed, replay_cycles,
                           clockOverheadNs());
    }
    {
        Scope span("frfc.input_table.replay");
        replayInputTable(rp, fr_cfg, flit_rate, o.seed, replay_cycles * 8);
    }
    {
        Scope span("sim.channel.replay");
        replayChannel(rp, replay_cycles * 8);
    }
    {
        Scope span("traffic.generate.replay");
        replayGenerator(rp, fr_cfg, o.seed, o.quick ? 200 : 2000);
    }
    L["frfc.output_table.find_departure_ns"] = rp.findNs;
    L["frfc.output_table.reserve_credit_ns"] = rp.reserveCreditNs;
    L["frfc.output_table.advance_ns"] = rp.advanceNs;
    L["frfc.input_table.flow_ns"] = rp.flowNs;
    L["sim.channel.transport_ns"] = rp.transportNs;
    L["traffic.generate_ns"] = rp.generateNs;

    // Estimated table time per node-cycle: calls per node-cycle from the
    // workload's counters times the replayed cost per call, with one
    // advance per output table per router tick and every router taken
    // as ticking every cycle (an upper bound under the event kernel).
    // run.py divides by the measured cost for frfc.tables.est_share.
    const double table_ns = per(res + den) * rp.findNs
        + (per(res) + per(credits)) * rp.reserveCreditNs
        + tables_per_nc * rp.advanceNs + per(data) * rp.flowNs;
    L["frfc.tables.est_ns_per_node_cycle"] = table_ns;
}

void
windowWorkload(const Options& o, Outcome& out, const WindowWorkload& w,
               bool serial_replay)
{
    const auto deadline = deadlineAfter(o.seconds);
    SchemeRun last_fr;
    SchemeRun last_vc;
    // Traced runs time one untraced repetition first, so the traced
    // one's wall time gives the tracing overhead.
    const int traced_rep = o.trace ? 1 : -1;
    std::optional<CpuRotation> rotation;
    if (w.fr.get<std::string>("sim.kernel") != "parallel")
        rotation.emplace();
    for (int rep = 0;; ++rep) {
        if (rotation)
            rotation->moveTo(rep);
        g_tracer.enable(o.trace && rep == traced_rep);
        const int job = g_tracer.begin("perfbench.job");
        const auto t0 = Clock::now();
        SchemeRun fr = runWindows(w.fr, w.plan, "fr");
        SchemeRun vc = runWindows(w.vc, w.plan, "vc");
        const double wall = secondsSince(t0);
        g_tracer.end(job);
        std::fprintf(stderr, "%s rep %d: %.3f s\n", o.workload.c_str(), rep,
                     wall);
        Hasher h;
        h.u64(fr.hash);
        h.u64(vc.hash);
        out.repWall.push_back(wall);
        out.repHash.push_back(hex(h.value()));
        if (rep == 0)
            out.peakRssMb = peakRssMb();
        if (rep != traced_rep) {
            out.frWindowNs.insert(out.frWindowNs.end(), fr.windowNs.begin(),
                                  fr.windowNs.end());
            out.vcWindowNs.insert(out.vcWindowNs.end(), vc.windowNs.begin(),
                                  vc.windowNs.end());
        }
        out.simulatedRuns += 2;
        if (w.plan.drain) {
            addCheck(out, "fr.delivery_after_drain",
                     fr.drained && fr.created == fr.delivered,
                     std::to_string(fr.delivered) + "/"
                         + std::to_string(fr.created));
            addCheck(out, "vc.delivery_after_drain",
                     vc.drained && vc.created == vc.delivered,
                     std::to_string(vc.delivered) + "/"
                         + std::to_string(vc.created));
        }
        last_fr = std::move(fr);
        last_vc = std::move(vc);
        if (o.trace ? rep == traced_rep : Clock::now() >= deadline)
            break;
    }
    rotation.reset();
    g_tracer.enable(o.trace);
    out.sim.emplace_back("fr.sim_latency_p99_cycles", last_fr.p99);
    out.sim.emplace_back("vc.sim_latency_p99_cycles", last_vc.p99);

    if (!o.trace)
        return;
    noteTraceOverhead(out);
    windowLayers(out, last_fr, last_vc, w.fr, o);

    // Same windows under the serial event kernel: the parallel kernel
    // must reproduce them exactly, and the ratio of host times is the
    // parallel speedup.
    if (serial_replay) {
        Config fr_serial = w.fr;
        fr_serial.set("sim.kernel", "event");
        Config vc_serial = w.vc;
        vc_serial.set("sim.kernel", "event");
        SchemeRun sfr;
        SchemeRun svc;
        {
            Scope span("sim.serial_replay");
            sfr = runWindows(fr_serial, w.plan, "fr serial");
            svc = runWindows(vc_serial, w.plan, "vc serial");
        }
        out.simulatedRuns += 2;
        addCheck(out, "fr.parallel_matches_serial", sfr.hash == last_fr.hash,
                 hex(sfr.hash) + " vs " + hex(last_fr.hash));
        addCheck(out, "vc.parallel_matches_serial", svc.hash == last_vc.hash,
                 hex(svc.hash) + " vs " + hex(last_vc.hash));
        out.layer["sim.parallel.speedup"] =
            last_fr.measuredS > 0.0 ? sfr.measuredS / last_fr.measuredS
                                    : 0.0;
    }
}

/** setup_s samples (each builds every config once) and the network
 *  layer's build-time and footprint metrics; the footprint is that of
 *  the first config of each scheme. */
void
setupAndFootprint(Outcome& out, const std::vector<Config>& fr,
                  const std::vector<Config>& vc, int builds, bool layers)
{
    Scope span("network.build.timing");
    const auto fr_s = timeSetup(fr, builds);
    const auto vc_s = timeSetup(vc, builds);
    for (std::size_t i = 0; i < fr_s.size(); ++i)
        out.setup.push_back(fr_s[i] + vc_s[i]);
    if (!layers)
        return;
    out.layer["network.fr.build_s"] = medianOf(fr_s);
    out.layer["network.vc.build_s"] = medianOf(vc_s);
    out.layer["network.fr.bytes_per_node"] = bytesPerNode(fr[0]);
    out.layer["network.vc.bytes_per_node"] = bytesPerNode(vc[0]);
}

void
fig5Workload(const Options& o, Outcome& out)
{
    std::vector<Config> cfgs;
    for (const Fig5Config& c : kFig5)
        cfgs.push_back(fig5Config(c, o.seed));
    const RunOptions opt = fig5Options(o.quick, out.threads);
    const auto deadline = deadlineAfter(o.seconds);

    int checked_points = 0;
    std::string incomplete;
    const int traced_rep = o.trace ? 1 : -1;
    for (int rep = 0;; ++rep) {
        g_tracer.enable(o.trace && rep == traced_rep);
        const int job_span = g_tracer.begin("perfbench.job");
        const auto t0 = Clock::now();
        Fig5Job job = runFig5Job(o, cfgs, opt);
        const double wall = secondsSince(t0);
        g_tracer.end(job_span);
        std::fprintf(stderr,
                     "fig5_sweep rep %d: %.3f s (sweep %.3f, saturation "
                     "%.3f, report %.3f)\n",
                     rep, wall, job.sweepS, job.saturationS, job.reportS);
        out.repWall.push_back(wall);
        out.repHash.push_back(hex(job.hash));
        if (rep == 0)
            out.peakRssMb = peakRssMb();
        out.simulatedRuns += static_cast<std::int64_t>(cfgs.size()
                                                       * job.curves[0].size());
        // Host cost per simulated node-cycle over the ladder runs of
        // each scheme (total run time / total node-cycles, so the costly
        // saturated points weigh by the cycles they simulate).
        if (rep != traced_rep) {
            double fr_s = 0.0, fr_nc = 0.0, vc_s = 0.0, vc_nc = 0.0;
            for (std::size_t i = 0; i < cfgs.size(); ++i) {
                const bool fr = cfgs[i].get<std::string>("scheme") == "fr";
                for (const RunResult& r : job.curves[i]) {
                    (fr ? fr_s : vc_s) += r.wallSeconds;
                    (fr ? fr_nc : vc_nc) +=
                        static_cast<double>(r.totalCycles) * kFig5Nodes;
                }
            }
            out.frWindowNs.push_back(fr_s * 1e9 / fr_nc);
            out.vcWindowNs.push_back(vc_s * 1e9 / vc_nc);
        }
        // Every point below the located saturation load must have
        // delivered its whole sample within the cycle budget.
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            for (const RunResult& r : job.curves[i]) {
                if (r.offeredFraction + 1e-9 >= job.saturation[i] - 0.02)
                    continue;
                ++checked_points;
                if (!r.complete || r.packetsDelivered < opt.samplePackets)
                    incomplete += std::string(kFig5[i].name) + "@"
                        + std::to_string(r.offeredFraction) + " ";
            }
        }
        if (rep == traced_rep)
            fig5Layers(out, job, out.threads);
        if (rep == 0)
            fig5Simulated(out, job);
        if (o.trace ? rep == traced_rep : Clock::now() >= deadline)
            break;
    }
    addCheck(out, "fig5.complete_below_saturation", incomplete.empty(),
             incomplete.empty()
                 ? std::to_string(checked_points) + " points"
                 : incomplete);
    g_tracer.enable(o.trace);

    setupAndFootprint(out, {cfgs[kFr6], cfgs[kFr13]},
                      {cfgs[kVc8], cfgs[kVc16]}, o.quick ? 3 : 15, o.trace);
    if (o.trace) {
        noteTraceOverhead(out);
        Replay rp;
        replayChannel(rp, o.quick ? 16000 : 320000);
        replayGenerator(rp, cfgs[kFr6], o.seed, o.quick ? 200 : 2000);
        out.layer["sim.channel.transport_ns"] = rp.transportNs;
        out.layer["traffic.generate_ns"] = rp.generateNs;
        // Registry size and snapshot cost of one FR6 mesh8 network.
        auto net = makeNetwork(cfgs[kFr6]);
        std::vector<double> snap;
        for (int i = 0; i < 5; ++i) {
            Scope span("stats.snapshot");
            const auto t0 = Clock::now();
            const MetricsSnapshot s = net->metrics().snapshot();
            snap.push_back(secondsSince(t0));
        }
        out.layer["stats.instruments"] =
            static_cast<double>(net->metrics().size());
        out.layer["stats.snapshot_s"] = medianOf(snap);
    }
}

// ---------------------------------------------------------------------
// Output

/** Every per-layer metric the benchmark declares, so each traced run
 *  prints the full set (0 where the workload does not exercise it). */
const std::vector<std::string>&
layerNames()
{
    static const std::vector<std::string> names{
        "sim.kernel.ticks_per_node_cycle",
        "sim.kernel.ns_per_tick",
        "sim.kernel.idle_cycles_skipped",
        "sim.parallel.windows",
        "sim.parallel.lookahead_cycles",
        "sim.parallel.tick_imbalance",
        "sim.parallel.speedup",
        "sim.channel.transport_ns",
        "sim.fault.data_dropped",
        "frfc.router.reservations",
        "frfc.router.reservations_denied",
        "frfc.router.reserve_success_ratio",
        "frfc.router.sched_retries",
        "frfc.router.horizon_full",
        "frfc.router.advance_credits",
        "frfc.router.ctrl_forwarded",
        "frfc.router.data_forwarded",
        "frfc.input_table.bypasses",
        "frfc.input_table.parked",
        "frfc.spec.dropped",
        "frfc.spec.evicted",
        "frfc.output_table.reserve_credit_ns",
        "frfc.output_table.find_departure_ns",
        "frfc.output_table.advance_ns",
        "frfc.input_table.flow_ns",
        "frfc.tables.est_ns_per_node_cycle",
        "vc.router.vc_alloc_failures",
        "vc.router.credit_stalls",
        "vc.router.data_flits",
        "network.fr.build_s",
        "network.vc.build_s",
        "network.fr.bytes_per_node",
        "network.vc.bytes_per_node",
        "network.recovery.retransmits",
        "network.recovery.retransmit_ratio",
        "network.sink.dup_discarded",
        "network.runner.runs",
        "network.runner.saturated_runs",
        "network.runner.cycles_simulated",
        "harness.sweep.busy_frac",
        "harness.sweep.longest_run_s",
        "harness.saturation_s",
        "harness.report.write_s",
        "harness.report.bytes",
        "stats.instruments",
        "stats.snapshot_s",
        "traffic.packets_generated",
        "traffic.generate_ns",
        "trace.overhead_frac",
        "paper.saturation_err_pp",
        "paper.base_latency_err_cycles",
    };
    return names;
}

JsonValue
numbers(const std::vector<double>& values)
{
    JsonValue a = JsonValue::array();
    for (const double v : values)
        a.push(v);
    return a;
}

void
writeChromeTrace(const std::string& path, const std::string& workload)
{
    JsonValue events = JsonValue::array();
    const auto& spans = g_tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        JsonValue args = JsonValue::object();
        args.set("id", static_cast<std::int64_t>(i));
        args.set("parent", s.parent);
        args.set("workload", workload);
        if (s.fromRunResult)
            args.set("duration_from", "RunResult::wallSeconds");
        JsonValue e = JsonValue::object();
        e.set("name", s.name);
        e.set("cat", s.name.substr(0, s.name.find('.')));
        e.set("ph", "X");
        e.set("ts", s.start_us);
        e.set("dur", std::max(0.0, s.end_us - s.start_us));
        e.set("pid", 1);
        e.set("tid", s.lane);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream f(path);
    if (!f)
        die("cannot write trace file '" + path + "'");
    f << doc.dump() << '\n';
}

}  // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    g_tracer.enable(o.trace);
    Outcome out;
    const auto t_main = Clock::now();

    if (o.workload == "fig5_sweep") {
        out.threads = workerCap();
        fig5Workload(o, out);
    } else if (o.workload == "mesh32_steady") {
        out.shards = workerCap();
        const WindowWorkload w = mesh32Workload(o, out.shards);
        setupAndFootprint(out, {w.fr}, {w.vc}, o.quick ? 3 : 7, o.trace);
        windowWorkload(o, out, w, /*serial_replay=*/true);
    } else if (o.workload == "memory_faults") {
        const WindowWorkload w = memoryWorkload(o);
        setupAndFootprint(out, {w.fr}, {w.vc}, o.quick ? 3 : 15, o.trace);
        windowWorkload(o, out, w, /*serial_replay=*/false);
    } else {
        die("unknown workload '" + o.workload
            + "' (fig5_sweep, mesh32_steady, memory_faults)");
    }

    bool reps_agree = true;
    for (const std::string& h : out.repHash)
        reps_agree = reps_agree && h == out.repHash.front();
    addCheck(out, "repetitions_bit_identical", reps_agree,
             std::to_string(out.repHash.size()) + " repetitions");

    if (o.trace && !o.traceFile.empty())
        writeChromeTrace(o.traceFile, o.workload);

    JsonValue j = JsonValue::object();
    j.set("workload", o.workload);
    j.set("seed", static_cast<std::int64_t>(o.seed));
    j.set("quick", o.quick);
    j.set("trace", o.trace);
    j.set("nproc", availableCpus());
    j.set("threads", out.threads);
    j.set("shards", out.shards);
    j.set("elapsed_s", secondsSince(t_main));
    j.set("peak_rss_mb", out.peakRssMb);
    j.set("simulated_runs", out.simulatedRuns);
    j.set("rep_wall_s", numbers(out.repWall));
    JsonValue hashes = JsonValue::array();
    for (const std::string& h : out.repHash)
        hashes.push(h);
    j.set("rep_hash", std::move(hashes));
    j.set("setup_s", numbers(out.setup));
    j.set("fr_ns_per_node_cycle", numbers(out.frWindowNs));
    j.set("vc_ns_per_node_cycle", numbers(out.vcWindowNs));
    JsonValue sim = JsonValue::object();
    for (const auto& [k, v] : out.sim)
        sim.set(k, v);
    j.set("sim", std::move(sim));
    JsonValue checks = JsonValue::array();
    for (const Check& c : out.checks) {
        JsonValue cj = JsonValue::object();
        cj.set("name", c.name);
        cj.set("ok", c.ok);
        cj.set("detail", c.detail);
        checks.push(std::move(cj));
    }
    j.set("checks", std::move(checks));
    if (o.trace) {
        JsonValue layer = JsonValue::object();
        for (const std::string& name : layerNames()) {
            const auto it = out.layer.find(name);
            layer.set(name, it != out.layer.end() ? it->second : 0.0);
        }
        for (const auto& kv : out.layer)
            if (std::find(layerNames().begin(), layerNames().end(),
                          kv.first)
                == layerNames().end())
                die("undeclared layer metric " + kv.first);
        j.set("layer", std::move(layer));
    }
    std::printf("%s\n", j.dump().c_str());
    return 0;
}
