#include "src/kv/lsm_ring.h"

#include <memory>
#include <utility>

namespace mitt::kv {

LsmRing::LsmRing(sim::Simulator* sim, std::vector<lsm::LsmNode*> nodes,
                 cluster::Network* network)
    : nodes_(std::move(nodes)), network_(network), home_shard_(sim->shard_id()) {}

tenant::ReplicaGroup LsmRing::ReplicasOf(uint64_t key) const {
  tenant::ReplicaGroup replicas;
  replicas.size = kReplication;
  const uint64_t mixed = key * 0xC2B2'AE3D'27D4'EB4FULL;
  const int primary = static_cast<int>(mixed % nodes_.size());
  for (int r = 0; r < kReplication; ++r) {
    replicas.node[r] = (primary + r) % num_nodes();
  }
  return replicas;
}

void LsmRing::Put(uint64_t key, std::function<void(Status)> done) {
  auto first = std::make_shared<bool>(true);
  auto shared_done = std::make_shared<std::function<void(Status)>>(std::move(done));
  for (const int r : ReplicasOf(key)) {
    network_->DeliverToNode(r, [this, r, key, first, shared_done] {
      node(r).HandlePut(key, [this, r, first, shared_done](Status s) {
        network_->Deliver(r, home_shard_, [first, shared_done, s] {
          if (*first) {
            *first = false;
            (*shared_done)(s);
          }
        });
      });
    });
  }
}

}  // namespace mitt::kv
