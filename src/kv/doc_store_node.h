// DocStoreNode: one MongoDB-like storage server (§5).
//
// A node stores `num_keys` fixed-size documents in one data file on its own
// OS instance. Reads follow one of two access paths, matching the paper's two
// MongoDB modifications:
//
//   * kMmapAddrCheck — MongoDB's default mmap() data access, guarded by the
//     new addrcheck() syscall (82 ns) before dereferencing; EBUSY fails over
//     without waiting while the OS swaps the page in, in the background.
//   * kRead — the read(..., deadline) syscall; the deadline propagates into
//     the IO scheduler, where MittNoop/MittCFQ/MittSSD accept or reject.
//
// The third path, kLsm, is the other store: cluster::Cluster builds
// lsm::LsmNodes (LevelDB under Riak) in place of DocStore nodes for it.
//
// The request path around the read — handler CPU on the node's CpuPool
// (Fig. 8's contention lives there), the degraded read, puts and the fault
// hooks — is StorageNode's. EBUSY handling is "exceptionless" by default —
// the paper measured 200 us for a C++ exception round trip and added a
// direct retry path; `exception_on_ebusy` restores the expensive path for
// ablation.

#ifndef MITTOS_KV_DOC_STORE_NODE_H_
#define MITTOS_KV_DOC_STORE_NODE_H_

#include <cstdint>

#include "src/cluster/cpu_pool.h"
#include "src/common/status.h"
#include "src/kv/storage_node.h"
#include "src/sim/simulator.h"

namespace mitt::kv {

enum class AccessPath {
  kMmapAddrCheck,
  kRead,
  kLsm,  // LevelDB block reads through an LsmTree (lsm::LsmNode).
};

class DocStoreNode final : public StorageNode {
 public:
  struct Options : StorageNode::Options {
    AccessPath access = AccessPath::kRead;
    bool exception_on_ebusy = false;  // Paper default: exceptionless path.
  };

  // `shared_cpu` (optional) makes several nodes contend for one physical
  // CPU pool — the §7.5 setup of six MongoDB processes on one 8-thread
  // machine. When null the node owns its own pool.
  DocStoreNode(sim::Simulator* sim, int node_id, const Options& options,
               cluster::CpuPool* shared_cpu = nullptr);

  // Pre-loads a fraction of the documents into the OS cache.
  void WarmCache(double fraction);

  uint64_t data_file() const { return data_file_; }
  int64_t data_file_size() const;

 private:
  int64_t OffsetOfKey(uint64_t key) const;

  // The access path's read; a degraded read always takes read(), whose
  // wait hint paces its retries.
  void Read(Request* r) override;
  // A buffered write of the document's slot (§7.8.6).
  void Write(Request* r) override;

  Options options_;
  uint64_t data_file_ = 0;
};

}  // namespace mitt::kv

#endif  // MITTOS_KV_DOC_STORE_NODE_H_
