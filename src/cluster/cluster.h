// A replicated store deployment: N nodes, every key replicated on 3 of them
// (§3.1's deployment model), one shared network. The node options' access
// path picks the store §5 integrates MittOS into: kLsm builds lsm::LsmNodes
// (LevelDB under Riak), the other paths kv::DocStoreNodes (MongoDB). Both
// serve gets through kv::StorageNode, so the client strategies and the fault
// injector run over either.

#ifndef MITTOS_CLUSTER_CLUSTER_H_
#define MITTOS_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/network.h"
#include "src/common/status.h"
#include "src/kv/doc_store_node.h"
#include "src/kv/storage_node.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulator.h"
#include "src/tenant/placement.h"

namespace mitt::cluster {

class Cluster final {
 public:
  // Replicas per key; a cluster of fewer nodes keeps one replica on each.
  static constexpr int kReplication = 3;
  static_assert(kReplication <= tenant::ReplicaGroup::kMaxReplication);

  struct Options {
    int num_nodes = 20;
    // Every node's options; the DocStore-only fields are unused under kLsm.
    kv::DocStoreNode::Options node;
    NetworkParams network;
    // >0: every node handler contends for one shared CPU pool of this many
    // cores (the §7.5 one-machine/many-processes deployment).
    int shared_cpu_cores = 0;
    uint64_t seed = 1;
  };

  // Node n lives on shard n*S/N of the engine (contiguous blocks, so a
  // replica group of consecutive ring successors usually shares a shard),
  // each node's full stack (OS, devices, scheduler, cache) built on its
  // shard's simulator; a 1-shard engine (`sim::ShardedEngine engine({})`)
  // runs the plain Simulator schedule. The network is attached to the
  // engine with the node->shard map; shard counts must not depend on worker
  // count (the engine's determinism contract). A shared CPU pool
  // (shared_cpu_cores > 0) is cross-node state, so it needs a 1-shard
  // engine; with more shards this throws std::invalid_argument.
  Cluster(sim::ShardedEngine* engine, const Options& options);

  // Strategies, injectors and in-flight puts hold the cluster's address.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Node i's server; its handlers are called on shard shard_of_node(i).
  kv::StorageNode& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  // The fabric between clients and nodes.
  Network& network() { return *network_; }
  const Options& options() const { return options_; }
  // The engine the world runs on; fault and placement events are its
  // global events.
  sim::ShardedEngine* engine() const { return engine_; }

  // Shard owning node i.
  int shard_of_node(int i) const { return network_->ShardOfNode(i); }

  // The nodes holding `key`, primary first: min(kReplication, num_nodes)
  // distinct ring successors (a fixed array, so routing allocates nothing).
  tenant::ReplicaGroup ReplicasOf(uint64_t key) const;

  // Replicated put (Riak w=1): writes every replica and acks after the
  // first, on the calling shard. Both hops are tagged with the replica, so
  // its per-link faults apply.
  void Put(uint64_t key, std::function<void(Status)> done);

  // Warms every DocStore node's cache to the given fraction of its dataset.
  // An LSM node has no data file to warm: under kLsm this throws
  // std::invalid_argument.
  void WarmAll(double fraction);

 private:
  void AddNode(sim::Simulator* sim, int i);

  Options options_;
  sim::ShardedEngine* engine_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<CpuPool> shared_cpu_;
  std::vector<std::unique_ptr<kv::StorageNode>> nodes_;
};

}  // namespace mitt::cluster

#endif  // MITTOS_CLUSTER_CLUSTER_H_
