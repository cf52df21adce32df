/**
 * @file
 * Topology partitioning for the conservative parallel kernel.
 *
 * A ShardPlan maps every node to one shard; all components of a node
 * (router, source, its slice of the ejection sink) live in that shard
 * and tick on the shard's thread. Two policies (`sim.partition`):
 *
 *   striped  contiguous node-id ranges, sizes differing by at most
 *            one — trivially balanced, but a range's boundary cuts a
 *            whole row of mesh links.
 *   bisect   recursive coordinate bisection of the 2D grid, splitting
 *            the longer dimension each time (default) — near-square
 *            blocks minimize cut links, i.e. mailbox traffic.
 *
 * `sim.shards` selects the shard count: a positive integer, or 0 /
 * "auto" for the run's share of the hardware threads (see
 * autoShardCount()). The count is clamped to the node count. The plan
 * affects wall-clock only — results are bit-identical for every shard
 * count and policy by construction (see DESIGN.md section 10).
 */

#ifndef FRFC_SIM_SHARD_HPP
#define FRFC_SIM_SHARD_HPP

#include <string>
#include <vector>

#include "common/types.hpp"

namespace frfc {

class Config;
class Topology;

/** Node-to-shard assignment for one network. */
struct ShardPlan
{
    int shards = 1;
    std::vector<int> owner;  ///< node id -> shard index

    int
    ownerOf(NodeId node) const
    {
        return owner[static_cast<std::size_t>(node)];
    }

    /** Nodes per shard (balance reporting). */
    std::vector<int> counts() const;
};

/**
 * Shard count for `sim.shards=auto`: the @p hw_threads hardware
 * threads split evenly among @p concurrent_runs simultaneous runs
 * (`run.threads`; <= 0 means one run per hardware thread), at least
 * one shard and at most one per node. Pure, so tests can inject any
 * host shape.
 */
int autoShardCount(int hw_threads, int concurrent_runs, int nodes);

/**
 * Build the plan for @p topo from `sim.shards` / `sim.partition`.
 * Every shard is guaranteed at least one node.
 */
ShardPlan makeShardPlan(const Config& cfg, const Topology& topo);

/** Partition @p topo into @p shards stripes of contiguous node ids. */
ShardPlan makeStripedPlan(const Topology& topo, int shards);

/** Recursive coordinate bisection of @p topo into @p shards blocks. */
ShardPlan makeBisectPlan(const Topology& topo, int shards);

}  // namespace frfc

#endif  // FRFC_SIM_SHARD_HPP
