// One Riak-style storage node (§5, §7.8.4): an LsmTree (LevelDB) over its own
// MittOS instance. Like a DocStore node, it holds `num_keys` entries — bulk-
// loaded into L1 when it is built — and serves key k from entry k mod
// num_keys. The request path around the tree — handler CPU, the degraded
// read, puts and the fault hooks — is kv::StorageNode's; the node supplies
// LevelDB's read and write.

#ifndef MITTOS_LSM_LSM_NODE_H_
#define MITTOS_LSM_LSM_NODE_H_

#include <cstdint>
#include <memory>

#include "src/cluster/cpu_pool.h"
#include "src/common/status.h"
#include "src/kv/storage_node.h"
#include "src/lsm/lsm_tree.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {

class LsmNode final : public kv::StorageNode {
 public:
  // `shared_cpu` as for kv::DocStoreNode. The tree runs LsmTree's default
  // options.
  LsmNode(sim::Simulator* sim, int node_id, const kv::StorageNode::Options& options,
          cluster::CpuPool* shared_cpu = nullptr);

  LsmTree& lsm() { return *lsm_; }

 private:
  uint64_t EntryOf(uint64_t key) const { return key % num_keys_; }

  // LevelDB's read path under the request's deadline: kOk, kNotFound or
  // kEbusy. Its block reads carry the get's trace but no per-request wait
  // hint, so a get's reply carries hint 0; a degraded read's EBUSY reports
  // the device floor, which paces its retries.
  void Read(Request* r) override;
  // WAL append + memtable insert.
  void Write(Request* r) override;

  uint64_t num_keys_;
  std::unique_ptr<LsmTree> lsm_;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_LSM_NODE_H_
