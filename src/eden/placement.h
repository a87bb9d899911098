// Node placement for the sharded kernel: which worker shard owns a node.
//
// One free function, shared by the kernel (Kernel::ShardOf) and the static
// concurrency lints (verify::TopologySpec::ShardOf), so ASC010-ASC012 reason
// about exactly the placement a run uses.
//
// The default scatters unhinted nodes by a fixed 64-bit mix of the node id
// (SplitMix64), taken modulo the shard count. A plain `node % shards` would
// resonate with regular topologies: distinct_nodes pipelines mint L
// consecutive nodes per chain, so with gcd(L, shards) > 1 every chain's
// stage s lands on the same few shards. Chains that move in virtual-time
// lockstep then load only those shards in each window while the rest wait
// at the barrier, even though the whole-run totals look balanced. A mixed
// id has no stride to resonate with. Placement never enters EventKeys or
// virtual time, so changing it moves only cross_shard_sends and wall time.
#ifndef SRC_EDEN_PLACEMENT_H_
#define SRC_EDEN_PLACEMENT_H_

#include <cstdint>

#include "src/eden/cost_model.h"

namespace eden {

// One SplitMix64 step: the golden-ratio increment, then the finaliser.
// Pure integer arithmetic, so every platform computes the same value.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// The shard that owns `node` among `shards` workers. kNoNode and node0
// (node <= 0) always live on shard 0, and one shard is always shard 0. A
// hint >= 0 (Kernel::AddNode, PipelineOptions::partition_shard) pins the
// node to `hint % shards`; -1 scatters it.
constexpr int PlaceNode(NodeId node, int hint, int shards) {
  if (shards <= 1 || node <= 0) {
    return 0;
  }
  if (hint >= 0) {
    return hint % shards;
  }
  return static_cast<int>(SplitMix64(static_cast<uint64_t>(node)) %
                          static_cast<uint64_t>(shards));
}

}  // namespace eden

#endif  // SRC_EDEN_PLACEMENT_H_
