// Riak-style ring of LSM nodes (§5's two-level integration) behind the
// kv::ReplicatedStore seam. Gets go through the same client strategies as
// the DocStore cluster's: with client::MittosStrategy, an EBUSY surfacing
// from LevelDB's block read fails the get over to the next replica at once,
// and the last try disables the deadline; with client::TimeoutStrategy's
// Base configuration the ring behaves like vanilla Riak (wait, no
// deadline). The ring itself only places keys, hands out its nodes, and
// fans puts out.

#ifndef MITTOS_KV_LSM_RING_H_
#define MITTOS_KV_LSM_RING_H_

#include <functional>
#include <vector>

#include "src/cluster/network.h"
#include "src/common/status.h"
#include "src/kv/replicated_store.h"
#include "src/lsm/lsm_node.h"
#include "src/sim/simulator.h"

namespace mitt::kv {

class LsmRing final : public ReplicatedStore {
 public:
  // `nodes` and `network` are borrowed and must outlive the ring; nodes[i]
  // is ring node i. Put acks run on `sim`'s shard.
  LsmRing(sim::Simulator* sim, std::vector<lsm::LsmNode*> nodes, cluster::Network* network);

  int num_nodes() const override { return static_cast<int>(nodes_.size()); }
  tenant::ReplicaGroup ReplicasOf(uint64_t key) const override;
  cluster::Network& network() override { return *network_; }
  lsm::LsmNode& node(int i) override { return *nodes_[static_cast<size_t>(i)]; }

  // Replicated put: writes all replicas, acks after the first (Riak w=1).
  // Both hops are tagged with the replica, so its per-link faults apply.
  void Put(uint64_t key, std::function<void(Status)> done);

 private:
  // Every key lives on this many consecutive ring nodes.
  static constexpr int kReplication = 3;

  std::vector<lsm::LsmNode*> nodes_;
  cluster::Network* network_;
  int home_shard_ = 0;
};

}  // namespace mitt::kv

#endif  // MITTOS_KV_LSM_RING_H_
