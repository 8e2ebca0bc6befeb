// One Riak-style storage node (§5, §7.8.4): an LsmTree (LevelDB) over its own
// MittOS instance. The request path around the tree — handler CPU, the
// degraded read, puts and the fault hooks — is kv::StorageNode's; the node
// supplies LevelDB's read and write.

#ifndef MITTOS_LSM_LSM_NODE_H_
#define MITTOS_LSM_LSM_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/status.h"
#include "src/kv/storage_node.h"
#include "src/lsm/lsm_tree.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {

class LsmNode final : public kv::StorageNode {
 public:
  struct Options : kv::StorageNode::Options {
    LsmTree::Options lsm;
  };

  LsmNode(sim::Simulator* sim, int node_id, const Options& options);

  LsmTree& lsm() { return *lsm_; }

 private:
  // LevelDB's read path under the request's deadline: kOk, kNotFound or
  // kEbusy. Its block reads carry no per-request wait hint, so a get's
  // reply carries hint 0; a degraded read's EBUSY reports the device floor,
  // which paces its retries.
  void Read(Request* r) override;
  // WAL append + memtable insert.
  void Write(uint64_t key, std::function<void(Status)> done) override;

  std::unique_ptr<LsmTree> lsm_;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_LSM_NODE_H_
