// A replicated DocStore deployment: N nodes, every key replicated on 3 of
// them (§3.1's deployment model), one shared network. The client strategies
// and the fault injector reach its DocStoreNodes through the
// kv::ReplicatedStore seam.

#ifndef MITTOS_CLUSTER_CLUSTER_H_
#define MITTOS_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/cluster/network.h"
#include "src/kv/doc_store_node.h"
#include "src/kv/replicated_store.h"
#include "src/sim/simulator.h"
#include "src/tenant/placement.h"

namespace mitt::cluster {

class Cluster final : public kv::ReplicatedStore {
 public:
  struct Options {
    int num_nodes = 20;
    int replication = 3;
    kv::DocStoreNode::Options node;
    NetworkParams network;
    // >0: every node handler contends for one shared CPU pool of this many
    // cores (the §7.5 one-machine/many-processes deployment).
    int shared_cpu_cores = 0;
    uint64_t seed = 1;
  };

  Cluster(sim::Simulator* sim, const Options& options);

  // Sharded deployment: node n lives on shard n*S/N (contiguous blocks, so
  // a replica group of consecutive ring successors usually shares a shard),
  // each node's full stack (OS, devices, scheduler, cache) built on its
  // shard's simulator. The network is attached to the engine with the
  // node->shard map; shard counts must not depend on worker count (the
  // engine's determinism contract). A shared CPU pool (shared_cpu_cores >
  // 0) is cross-node state, so it needs a 1-shard engine; with more shards
  // this throws std::invalid_argument.
  Cluster(sim::ShardedEngine* engine, const Options& options);

  kv::DocStoreNode& node(int i) override { return *nodes_[static_cast<size_t>(i)]; }
  int num_nodes() const override { return static_cast<int>(nodes_.size()); }
  Network& network() override { return *network_; }
  const Options& options() const { return options_; }

  // Shard owning node i (0 when built on a plain Simulator).
  int shard_of_node(int i) const { return network_->ShardOfNode(i); }

  // The `replication` nodes holding `key`, primary first (at most
  // ReplicaGroup::kMaxReplication; a fixed array, so routing allocates
  // nothing).
  tenant::ReplicaGroup ReplicasOf(uint64_t key) const override;

  // Warms every node's cache to the given fraction of its dataset.
  void WarmAll(double fraction);

 private:
  Options options_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<CpuPool> shared_cpu_;
  std::vector<std::unique_ptr<kv::DocStoreNode>> nodes_;
};

}  // namespace mitt::cluster

#endif  // MITTOS_CLUSTER_CLUSTER_H_
