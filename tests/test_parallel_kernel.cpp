/**
 * @file
 * Conservative parallel kernel tests: shard-plan construction, and the
 * core determinism claim — `sim.kernel=parallel` is bit-identical to
 * the serial stepped and event kernels for every shard count and
 * partition policy, including under paranoid validation.
 *
 * Suite names carry "ParallelKernel" so the ThreadSanitizer ctest
 * matrix (scripts/static_checks.sh, -R 'Parallel|Thread|Executor')
 * picks every test up automatically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "harness/parallel.hpp"
#include "harness/presets.hpp"
#include "network/network.hpp"
#include "network/runner.hpp"
#include "sim/parallel_kernel.hpp"
#include "sim/shard.hpp"
#include "topology/topology.hpp"

namespace frfc {
namespace {

// ---------------------------------------------------------------- //
// Shard plans                                                      //
// ---------------------------------------------------------------- //

std::unique_ptr<Topology>
mesh(int x, int y)
{
    Config cfg;
    cfg.set("topology", "mesh");
    cfg.set("size_x", x);
    cfg.set("size_y", y);
    return makeTopology(cfg);
}

void
expectValidPlan(const ShardPlan& plan, int nodes, int shards)
{
    EXPECT_EQ(plan.shards, shards);
    ASSERT_EQ(plan.owner.size(), static_cast<std::size_t>(nodes));
    const std::vector<int> counts = plan.counts();
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(shards));
    int total = 0;
    for (const int c : counts) {
        EXPECT_GT(c, 0);  // every shard owns at least one node
        total += c;
    }
    EXPECT_EQ(total, nodes);
}

TEST(ParallelKernelShardPlan, StripedBalancedAndContiguous)
{
    const auto topo_p = mesh(8, 8);
    const Topology& topo = *topo_p;
    for (const int shards : {1, 2, 3, 7, 16, 64}) {
        const ShardPlan plan = makeStripedPlan(topo, shards);
        expectValidPlan(plan, 64, shards);
        const std::vector<int> counts = plan.counts();
        const int lo =
            *std::min_element(counts.begin(), counts.end());
        const int hi =
            *std::max_element(counts.begin(), counts.end());
        EXPECT_LE(hi - lo, 1) << shards << " shards";
        // Contiguous node-id ranges: owner never decreases.
        for (NodeId n = 1; n < topo.numNodes(); ++n)
            EXPECT_GE(plan.ownerOf(n), plan.ownerOf(n - 1));
    }
}

TEST(ParallelKernelShardPlan, BisectCoversEveryNodeOnce)
{
    const auto topo_p = mesh(8, 8);
    const Topology& topo = *topo_p;
    for (const int shards : {1, 2, 3, 5, 8, 16})
        expectValidPlan(makeBisectPlan(topo, shards), 64, shards);
    // Odd grid, odd shard count: still feasible.
    const auto odd_p = mesh(5, 3);
    const Topology& odd = *odd_p;
    for (const int shards : {1, 2, 3, 7, 15})
        expectValidPlan(makeBisectPlan(odd, shards), 15, shards);
}

TEST(ParallelKernelShardPlan, ConfigClampsShardsToNodeCount)
{
    const auto topo_p = mesh(4, 4);
    const Topology& topo = *topo_p;
    Config cfg;
    cfg.set("sim.shards", 99);
    expectValidPlan(makeShardPlan(cfg, topo), 16, 16);
    cfg.set("sim.shards", "auto");
    const ShardPlan plan = makeShardPlan(cfg, topo);
    EXPECT_GE(plan.shards, 1);
    EXPECT_LE(plan.shards, 16);
}

TEST(ParallelKernelShardPlan, AutoShardsSplitCoresAmongConcurrentRuns)
{
    // A lone run gets every hardware thread.
    EXPECT_EQ(autoShardCount(4, 1, 64), 4);
    // mesh8 under a 4-worker sweep on 4 cores: one shard per run, not
    // 4 x 4 threads fighting over 4 cores.
    EXPECT_EQ(autoShardCount(4, 4, 64), 1);
    EXPECT_EQ(autoShardCount(16, 4, 1024), 4);
    EXPECT_EQ(autoShardCount(8, 3, 64), 2);
    // More runs than cores still leaves each run one shard.
    EXPECT_EQ(autoShardCount(4, 8, 64), 1);
    // run.threads=0 means one run per hardware thread.
    EXPECT_EQ(autoShardCount(8, 0, 64), 1);
    // Never more shards than nodes; an unknown core count (0) is one.
    EXPECT_EQ(autoShardCount(64, 1, 16), 16);
    EXPECT_EQ(autoShardCount(0, 1, 64), 1);
}

TEST(ParallelKernelShardPlan, AutoShardsGiveALoneHarnessRunEveryCore)
{
    // The user asked for a 4-worker sweep, but the harness runs this
    // point alone (measureAtLoad, a one-point sweep): it stamps the
    // real concurrency, so the run still gets every hardware thread.
    const auto topo_p = mesh(8, 8);
    Config cfg;
    cfg.set("sim.shards", "auto");
    cfg.set("run.threads", 4);
    const int hw = std::max(
        static_cast<int>(std::thread::hardware_concurrency()), 1);
    EXPECT_EQ(makeShardPlan(withConcurrentRuns(cfg, 1), *topo_p).shards,
              std::min(hw, 64));
    EXPECT_EQ(makeShardPlan(withConcurrentRuns(cfg, hw), *topo_p).shards,
              1);
}

TEST(ParallelKernelShardPlan, AutoShardsHonorConfiguredRunThreads)
{
    const auto topo_p = mesh(8, 8);
    Config cfg;
    cfg.set("sim.shards", "auto");
    cfg.set("run.threads", 1024);  // more runs than any host's cores
    EXPECT_EQ(makeShardPlan(cfg, *topo_p).shards, 1);
}

// ---------------------------------------------------------------- //
// Serial/parallel equivalence                                      //
// ---------------------------------------------------------------- //

RunOptions
fastOpts()
{
    RunOptions opt;
    opt.samplePackets = 250;
    opt.minWarmup = 300;
    opt.maxWarmup = 1200;
    opt.maxCycles = 60000;
    return opt;
}

Config
smallConfig(const char* preset, long seed)
{
    Config cfg = baseConfig();
    if (std::string(preset) == "fr6")
        applyFr6(cfg);
    else
        applyVc8(cfg);
    cfg.set("size_x", 8);
    cfg.set("size_y", 8);
    cfg.set("workload.offered", 0.35);
    cfg.set("seed", seed);
    return cfg;
}

RunResult
runSerial(Config cfg, const char* kernel)
{
    cfg.set("sim.kernel", kernel);
    auto net = makeNetwork(cfg);
    return runMeasurement(*net, fastOpts());
}

RunResult
runParallel(Config cfg, int shards, const char* partition,
            int validate = 0)
{
    cfg.set("sim.kernel", "parallel");
    cfg.set("sim.shards", shards);
    cfg.set("sim.partition", partition);
    cfg.set("sim.validate", validate);
    auto net = makeNetwork(cfg);
    EXPECT_TRUE(net->parallelEnabled());
    const RunResult r = runMeasurement(*net, fastOpts());
    if (validate >= 1) {
        EXPECT_TRUE(net->validator().clean());
    }
    return r;
}

void
expectAllShardCountsIdentical(const char* preset, long seed)
{
    const Config cfg = smallConfig(preset, seed);
    const RunResult stepped = runSerial(cfg, "stepped");
    const RunResult event = runSerial(cfg, "event");
    ASSERT_TRUE(stepped.bitIdentical(event))
        << preset << " seed " << seed << ": serial kernels diverge";
    ASSERT_TRUE(stepped.complete);
    for (const int shards : {1, 2, 7, 16}) {
        for (const char* partition : {"striped", "bisect"}) {
            const RunResult par = runParallel(cfg, shards, partition);
            EXPECT_TRUE(stepped.bitIdentical(par))
                << preset << " seed " << seed << " shards " << shards
                << " partition " << partition;
        }
    }
}

TEST(ParallelKernelEquivalence, FrBitIdenticalAcrossShardCounts)
{
    expectAllShardCountsIdentical("fr6", 1);
}

TEST(ParallelKernelEquivalence, FrBitIdenticalSecondSeed)
{
    expectAllShardCountsIdentical("fr6", 42);
}

TEST(ParallelKernelEquivalence, VcBitIdenticalAcrossShardCounts)
{
    expectAllShardCountsIdentical("vc8", 1);
}

TEST(ParallelKernelEquivalence, VcBitIdenticalSecondSeed)
{
    expectAllShardCountsIdentical("vc8", 42);
}

TEST(ParallelKernelEquivalence, ParanoidValidationCleanAndIdentical)
{
    for (const char* preset : {"fr6", "vc8"}) {
        const Config cfg = smallConfig(preset, 7);
        const RunResult event = runSerial(cfg, "event");
        const RunResult par =
            runParallel(cfg, 4, "bisect", /*validate=*/2);
        EXPECT_TRUE(event.bitIdentical(par)) << preset;
        EXPECT_TRUE(par.complete) << preset;
    }
}

// ---------------------------------------------------------------- //
// Driver plumbing and balance statistics                           //
// ---------------------------------------------------------------- //

TEST(ParallelKernelStats, ShardBalanceCountersConsistent)
{
    Config cfg = smallConfig("fr6", 3);
    cfg.set("sim.kernel", "parallel");
    cfg.set("sim.shards", 4);
    auto net = makeNetwork(cfg);
    ASSERT_TRUE(net->parallelEnabled());
    ParallelKernel* pk = net->parallelKernel();
    ASSERT_NE(pk, nullptr);
    EXPECT_EQ(pk->shardCount(), 4);
    EXPECT_GE(pk->lookahead(), 1);

    net->driver().run(2000);
    EXPECT_EQ(net->driver().now(), 2000);
    EXPECT_GT(pk->windowsExecuted(), 0);

    const std::vector<std::int64_t> ticks = pk->shardTicks();
    const std::vector<std::size_t> comps = pk->shardComponents();
    ASSERT_EQ(ticks.size(), 4u);
    ASSERT_EQ(comps.size(), 4u);
    for (const std::size_t c : comps)
        EXPECT_GT(c, 0u);  // every shard got components
    const std::int64_t total =
        std::accumulate(ticks.begin(), ticks.end(), std::int64_t{0});
    EXPECT_EQ(total, net->driver().ticksExecuted());
}

TEST(ParallelKernelStats, RunUntilStopsAtSerialCycle)
{
    const Config cfg = smallConfig("vc8", 11);
    // bitIdentical covers totalCycles, but make the runUntil contract
    // explicit: the parallel driver must stop on the exact cycle the
    // serial kernel does, not at its next window boundary.
    const RunResult event = runSerial(cfg, "event");
    const RunResult par = runParallel(cfg, 3, "striped");
    EXPECT_EQ(event.totalCycles, par.totalCycles);
    EXPECT_EQ(event.warmupCycles, par.warmupCycles);
}

}  // namespace
}  // namespace frfc
