// The store seam under the client strategies (src/client/) and the fault
// injector (src/fault/): what one replicated get needs from whatever holds
// the replicas. Two stores implement it — cluster::Cluster (DocStore nodes,
// §5's MongoDB integration) and kv::LsmRing (LSM nodes, §5's LevelDB + Riak
// integration) — and both hand out their nodes as kv::StorageNode, so one
// EBUSY failover walk, client::MittosStrategy, and one injector serve both.

#ifndef MITTOS_KV_REPLICATED_STORE_H_
#define MITTOS_KV_REPLICATED_STORE_H_

#include <cstdint>

#include "src/cluster/network.h"
#include "src/kv/storage_node.h"
#include "src/tenant/placement.h"

namespace mitt::kv {

class ReplicatedStore {
 public:
  ReplicatedStore() = default;
  // Strategies and in-flight requests hold the store's address.
  ReplicatedStore(const ReplicatedStore&) = delete;
  ReplicatedStore& operator=(const ReplicatedStore&) = delete;
  virtual ~ReplicatedStore() = default;

  virtual int num_nodes() const = 0;

  // The replicas holding `key`, primary first.
  virtual tenant::ReplicaGroup ReplicasOf(uint64_t key) const = 0;

  // The fabric between clients and nodes: node n's requests run on shard
  // network().ShardOfNode(n).
  virtual cluster::Network& network() = 0;

  // Node i's server; its handlers are called on shard network().ShardOfNode(i).
  virtual StorageNode& node(int i) = 0;
};

}  // namespace mitt::kv

#endif  // MITTOS_KV_REPLICATED_STORE_H_
