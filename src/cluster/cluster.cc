#include "src/cluster/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/lsm/lsm_node.h"
#include "src/sim/sharded_engine.h"

namespace mitt::cluster {

Cluster::Cluster(sim::ShardedEngine* engine, const Options& options)
    : options_(options), engine_(engine) {
  const int num_shards = engine->num_shards();
  if (options_.shared_cpu_cores > 0 && num_shards > 1) {
    // Every shard's thread would run jobs on the one pool: a data race.
    throw std::invalid_argument("cluster: a shared CPU pool needs a 1-shard engine");
  }
  network_ = std::make_unique<Network>(engine->shard(0), options_.network,
                                       options_.seed ^ 0xBEEF);
  std::vector<int> node_shard(static_cast<size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    node_shard[static_cast<size_t>(i)] =
        static_cast<int>(static_cast<int64_t>(i) * num_shards / options_.num_nodes);
  }
  network_->AttachShards(engine, node_shard);
  if (options_.shared_cpu_cores > 0) {
    shared_cpu_ = std::make_unique<CpuPool>(engine->shard(0), options_.shared_cpu_cores);
  }
  nodes_.reserve(static_cast<size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    AddNode(engine->shard(node_shard[static_cast<size_t>(i)]), i);
  }
}

void Cluster::AddNode(sim::Simulator* sim, int i) {
  if (options_.node.access == kv::AccessPath::kLsm) {
    nodes_.push_back(std::make_unique<lsm::LsmNode>(sim, i, options_.node, shared_cpu_.get()));
  } else {
    nodes_.push_back(
        std::make_unique<kv::DocStoreNode>(sim, i, options_.node, shared_cpu_.get()));
  }
}

tenant::ReplicaGroup Cluster::ReplicasOf(uint64_t key) const {
  tenant::ReplicaGroup replicas;
  replicas.size = std::min(kReplication, options_.num_nodes);
  // Ring placement: primary by key hash, successors as replicas.
  const uint64_t mixed = key * 0x9E37'79B9'7F4A'7C15ULL;
  const int primary = static_cast<int>(mixed % static_cast<uint64_t>(options_.num_nodes));
  for (int r = 0; r < replicas.size; ++r) {
    replicas.node[r] = (primary + r) % options_.num_nodes;
  }
  return replicas;
}

void Cluster::Put(uint64_t key, std::function<void(Status)> done) {
  const int home = engine_->CurrentShardId();
  auto first = std::make_shared<bool>(true);
  auto shared_done = std::make_shared<std::function<void(Status)>>(std::move(done));
  for (const int r : ReplicasOf(key)) {
    network_->DeliverToNode(r, [this, r, key, home, first, shared_done] {
      node(r).HandlePut(key, [this, r, home, first, shared_done](Status s, DurationNs) {
        network_->Deliver(r, home, [first, shared_done, s] {
          if (*first) {
            *first = false;
            (*shared_done)(s);
          }
        });
      });
    });
  }
}

void Cluster::WarmAll(double fraction) {
  if (options_.node.access == kv::AccessPath::kLsm) {
    throw std::invalid_argument("cluster: an LSM node has no data file to warm");
  }
  for (auto& node : nodes_) {
    static_cast<kv::DocStoreNode&>(*node).WarmCache(fraction);
  }
}

}  // namespace mitt::cluster
