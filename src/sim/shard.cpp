#include "sim/shard.hpp"

#include <algorithm>
#include <thread>

#include "common/config.hpp"
#include "common/log.hpp"
#include "topology/topology.hpp"

namespace frfc {

namespace {

/**
 * Assign shards [first_shard, first_shard + count) to the grid box
 * [x0, x0 + w) x [y0, y0 + h): halve the longer side, then split the
 * shard count in proportion to the two sub-areas (clamped so each side
 * can hold its shards — feasible whenever count <= w * h).
 */
void
bisect(const Topology& topo, std::vector<int>& owner, int first_shard,
       int count, int x0, int y0, int w, int h)
{
    FRFC_ASSERT(count >= 1 && count <= w * h,
                "bisect: ", count, " shards for a ", w, "x", h, " box");
    if (count == 1) {
        for (int dy = 0; dy < h; ++dy)
            for (int dx = 0; dx < w; ++dx)
                owner[static_cast<std::size_t>(
                    topo.nodeAt(x0 + dx, y0 + dy))] = first_shard;
        return;
    }
    const bool split_x = w >= h;
    const int side = split_x ? w : h;
    const int other = split_x ? h : w;
    const int cut = side / 2;
    int left = (count * cut + side / 2) / side;
    left = std::clamp(left, std::max(1, count - (side - cut) * other),
                      std::min(count - 1, cut * other));
    const int right = count - left;
    if (split_x) {
        bisect(topo, owner, first_shard, left, x0, y0, cut, h);
        bisect(topo, owner, first_shard + left, right, x0 + cut, y0,
               w - cut, h);
    } else {
        bisect(topo, owner, first_shard, left, x0, y0, w, cut);
        bisect(topo, owner, first_shard + left, right, x0, y0 + cut, w,
               h - cut);
    }
}

}  // namespace

int
autoShardCount(int hw_threads, int concurrent_runs, int nodes)
{
    const int hw = std::max(hw_threads, 1);
    const int runs = concurrent_runs > 0 ? concurrent_runs : hw;
    return std::clamp(hw / runs, 1, std::max(nodes, 1));
}

std::vector<int>
ShardPlan::counts() const
{
    std::vector<int> result(static_cast<std::size_t>(shards), 0);
    for (const int s : owner)
        ++result[static_cast<std::size_t>(s)];
    return result;
}

ShardPlan
makeStripedPlan(const Topology& topo, int shards)
{
    const int n = topo.numNodes();
    FRFC_ASSERT(shards >= 1 && shards <= n, "bad shard count ", shards);
    ShardPlan plan;
    plan.shards = shards;
    plan.owner.resize(static_cast<std::size_t>(n));
    for (NodeId node = 0; node < n; ++node) {
        plan.owner[static_cast<std::size_t>(node)] = static_cast<int>(
            (static_cast<std::int64_t>(node) * shards) / n);
    }
    return plan;
}

ShardPlan
makeBisectPlan(const Topology& topo, int shards)
{
    const int n = topo.numNodes();
    FRFC_ASSERT(shards >= 1 && shards <= n, "bad shard count ", shards);
    ShardPlan plan;
    plan.shards = shards;
    plan.owner.assign(static_cast<std::size_t>(n), -1);
    bisect(topo, plan.owner, 0, shards, 0, 0, topo.sizeX(),
           topo.sizeY());
    return plan;
}

ShardPlan
makeShardPlan(const Config& cfg, const Topology& topo)
{
    const std::string raw =
        cfg.get<std::string>("sim.shards", std::string("auto"));
    int shards = 0;
    if (raw != "auto") {
        shards = static_cast<int>(cfg.getInt("sim.shards", 0));
        if (shards < 1)
            fatal("sim.shards must be a positive shard count or "
                  "'auto', got '", raw, "'");
    }
    if (shards <= 0) {
        // run.threads is the number of runs sharing the host. The sweep
        // harness stamps the concurrency it really runs each point at;
        // a network built straight from a config reads it as given,
        // and a config without it is a lone run.
        shards = autoShardCount(
            static_cast<int>(std::thread::hardware_concurrency()),
            cfg.get<int>("run.threads", 1), topo.numNodes());
    }
    shards = std::clamp(shards, 1, topo.numNodes());

    const std::string policy =
        cfg.get<std::string>("sim.partition", std::string("bisect"));
    if (policy == "striped")
        return makeStripedPlan(topo, shards);
    if (policy == "bisect")
        return makeBisectPlan(topo, shards);
    fatal("sim.partition must be 'striped' or 'bisect', got '", policy,
          "'");
}

}  // namespace frfc
