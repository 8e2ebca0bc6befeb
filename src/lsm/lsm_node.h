// One Riak-style storage node: an LsmTree (LevelDB) over its own MittOS
// instance, with handler CPU accounting, servicing get/put requests arriving
// over the network (§5, §7.8.4).

#ifndef MITTOS_LSM_LSM_NODE_H_
#define MITTOS_LSM_LSM_NODE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/cluster/cpu_pool.h"
#include "src/common/slot_pool.h"
#include "src/kv/replicated_store.h"
#include "src/lsm/lsm_tree.h"
#include "src/os/os.h"
#include "src/resilience/admission_gate.h"
#include "src/sim/simulator.h"

namespace mitt::lsm {

class LsmNode {
 public:
  struct Options {
    os::OsOptions os;
    LsmTree::Options lsm;
    int cpu_cores = 8;
    DurationNs handler_cpu = Micros(30);

    // Degraded (all-replicas-busy) read path (src/resilience/): bounded
    // admission + bounded escalating deadlines, mirroring DocStoreNode.
    resilience::AdmissionGateOptions admission;
    int degraded_max_attempts = 10;
    DurationNs degraded_deadline_cap = Seconds(2);
  };

  LsmNode(sim::Simulator* sim, int node_id, const Options& options);

  // Serves one get through LevelDB's read path under `deadline`; replies
  // kOk, kNotFound or kEbusy. The LSM read path carries no per-request wait
  // hint, so every reply's hint is 0.
  void HandleGetWithHint(uint64_t key, DurationNs deadline, kv::RichReplyFn reply);

  // Degraded read behind the shed gate: kUnavailable when over capacity;
  // admitted reads retry EBUSY with escalated (capped, never disabled)
  // deadlines. With no wait hint to go on, the inter-attempt wait uses the
  // device floor. Replies carry hint 0.
  void HandleDegradedGet(uint64_t key, DurationNs deadline, kv::RichReplyFn reply);

  void HandlePut(uint64_t key, std::function<void(Status)> reply);

  int node_id() const { return node_id_; }
  os::Os& os() { return *os_; }
  LsmTree& lsm() { return *lsm_; }
  uint64_t ebusy_returned() const { return ebusy_returned_; }
  uint64_t degraded_admits() const { return degraded_gate_.admits(); }
  uint64_t degraded_sheds() const { return degraded_gate_.sheds(); }
  DurationNs degraded_max_deadline() const { return degraded_max_deadline_; }

 private:
  // One get being served, from its arrival to the reply burst. LsmTree's
  // callbacks are copyable std::functions, so they capture {this, record}
  // and the move-only reply stays here. Pooled; released before `reply`
  // runs.
  struct Request {
    uint64_t key = 0;
    DurationNs deadline = 0;
    int attempt = 0;  // Degraded path: reads issued so far.
    kv::RichReplyFn reply;
    uint32_t pool_slot = 0;
    uint32_t pool_epoch = 0;
  };
  static constexpr size_t kRequestBlock = 64;

  Request* NewRequest(uint64_t key, DurationNs deadline, kv::RichReplyFn reply);
  // Queues the reply-serialization burst, then releases the record and
  // replies.
  void Finish(Request* r, Status status);
  void DegradedAttempt(Request* r);

  sim::Simulator* sim_;
  int node_id_;
  Options options_;
  std::unique_ptr<os::Os> os_;
  std::unique_ptr<cluster::CpuPool> cpu_;
  std::unique_ptr<LsmTree> lsm_;
  uint64_t ebusy_returned_ = 0;
  resilience::AdmissionGate degraded_gate_;
  DurationNs degraded_max_deadline_ = 0;
  SlotPool<Request, kRequestBlock> requests_;
};

}  // namespace mitt::lsm

#endif  // MITTOS_LSM_LSM_NODE_H_
