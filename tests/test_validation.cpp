/**
 * @file
 * Configuration validation: bad experiment descriptions must die with
 * actionable messages (fatal = user error), never misconfigure
 * silently.
 */

#include <gtest/gtest.h>

#include "harness/presets.hpp"
#include "network/network.hpp"
#include "traffic/workload.hpp"

namespace frfc {
namespace {

TEST(Validation, UnknownSchemeIsFatal)
{
    Config cfg = baseConfig();
    cfg.set("scheme", "quantum");
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "unknown scheme");
}

TEST(Validation, HorizonMustCoverDataLink)
{
    Config cfg = baseConfig();
    applyFr6(cfg);
    cfg.set("horizon", 5);  // data link is 4 cycles
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "horizon too short");
}

TEST(Validation, FlitsPerControlBounded)
{
    Config cfg = baseConfig();
    applyFr6(cfg);
    cfg.set("flits_per_ctrl", 99);
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "flits_per_ctrl");
}

TEST(Validation, MeshMustBeAtLeastTwoByTwo)
{
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set("size_x", 1);
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "dimensions");
}

TEST(Validation, TransposeNeedsSquareTopology)
{
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set("size_x", 4);
    cfg.set("size_y", 8);
    cfg.set("traffic", "transpose");
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "square");
}

TEST(Validation, HotspotFractionBounded)
{
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set("traffic", "hotspot");
    cfg.set("hotspot_fraction", 1.5);
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "fraction");
}

TEST(Validation, HotspotNodeInRange)
{
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set("traffic", "hotspot");
    cfg.set("hotspot_node", 640);
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(Validation, OfferedLoadAboveLinkRateIsFatal)
{
    // 2.5 flits/node/cycle cannot be injected over a 1-flit/cycle
    // injection port; the Bernoulli process rejects the packet rate.
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set("workload.packet_length", 1);
    cfg.set("workload.offered", 5.0);  // 5 x 0.5 = 2.5 flits/node/cycle
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "outside");
}

TEST(Validation, MissingTraceFileIsFatal)
{
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set(kWorkloadTraceFileKey, "/nonexistent/path.tr");
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "cannot open trace");
}

TEST(Validation, UnknownInjectionIsFatal)
{
    Config cfg = baseConfig();
    applyVc8(cfg);
    cfg.set("workload.injection", "poissonish");
    EXPECT_EXIT(makeNetwork(cfg), ::testing::ExitedWithCode(1),
                "unknown injection");
}

}  // namespace
}  // namespace frfc
