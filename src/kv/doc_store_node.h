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
// Every request costs handler CPU on the node's CpuPool (Fig. 8's contention
// lives here), and EBUSY handling is "exceptionless" by default — the paper
// measured 200 us for a C++ exception round trip and added a direct retry
// path; `exception_on_ebusy` restores the expensive path for ablation.

#ifndef MITTOS_KV_DOC_STORE_NODE_H_
#define MITTOS_KV_DOC_STORE_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/cpu_pool.h"
#include "src/common/slot_pool.h"
#include "src/common/status.h"
#include "src/kv/replicated_store.h"
#include "src/obs/trace.h"
#include "src/os/os.h"
#include "src/resilience/admission_gate.h"
#include "src/sim/simulator.h"

namespace mitt::kv {

enum class AccessPath {
  kMmapAddrCheck,
  kRead,
};

class DocStoreNode {
 public:
  struct Options {
    int64_t num_keys = 1 << 20;
    int64_t doc_size = 1024;   // 1 KB documents (YCSB workloads, §7).
    int64_t slot_size = 4096;  // One page per document slot.
    AccessPath access = AccessPath::kRead;
    int cpu_cores = 8;
    DurationNs handler_cpu = Micros(30);   // Parse + dispatch + reply.
    DurationNs exception_cost = Micros(200);
    bool exception_on_ebusy = false;  // Paper default: exceptionless path.
    int32_t server_pid = 1;
    os::OsOptions os;

    // Degraded (all-replicas-busy) read path (src/resilience/): bounded
    // admission behind a load-shed gate, bounded escalating deadlines —
    // the replacement for the paper's deadline-disabled last try.
    resilience::AdmissionGateOptions admission;
    int degraded_max_attempts = 10;
    DurationNs degraded_deadline_cap = Seconds(2);

    // Per-tenant accounting (src/tenant/): >0 sizes dense gets/EBUSY counter
    // arrays indexed by tenant id — two array increments on the get path,
    // no allocation. 0 disables (single-tenant worlds pay nothing).
    uint32_t tenant_slots = 0;
  };

  // Requests without a tenant (single-tenant worlds, background traffic).
  static constexpr uint32_t kNoTenant = 0xFFFFFFFFu;

  // `shared_cpu` (optional) makes several nodes contend for one physical
  // CPU pool — the §7.5 setup of six MongoDB processes on one 8-thread
  // machine. When null the node owns its own pool.
  DocStoreNode(sim::Simulator* sim, int node_id, const Options& options,
               cluster::CpuPool* shared_cpu = nullptr);

  DocStoreNode(const DocStoreNode&) = delete;
  DocStoreNode& operator=(const DocStoreNode&) = delete;

  // Serves one get(). `deadline` of sched::kNoDeadline means no SLO (vanilla
  // request). Replies with kOk or kEbusy; §7.8.1's extension: EBUSY replies
  // carry the OS' predicted wait so the client can pick the least-busy
  // replica when all replicas reject. `trace` identifies the originating
  // client request for src/obs/ (default: untraced); `tenant` attributes the
  // get to a tenant slot when accounting is enabled.
  void HandleGetWithHint(uint64_t key, DurationNs deadline, RichReplyFn reply,
                         obs::TraceContext trace = {}, uint32_t tenant = kNoTenant);

  // Degraded read (all replicas rejected): admission is bounded by the shed
  // gate — over capacity replies kUnavailable (+ wait hint) immediately.
  // Admitted reads loop on EBUSY, waiting out the predicted wait and
  // escalating the deadline (capped at degraded_deadline_cap, never
  // disabled), so completion is guaranteed without unbounded queueing.
  void HandleDegradedGet(uint64_t key, DurationNs deadline, RichReplyFn reply,
                         obs::TraceContext trace = {});

  // Serves one put() — buffered write (§7.8.6).
  void HandlePut(uint64_t key, std::function<void(Status)> reply);

  // Pre-loads a fraction of the documents into the OS cache.
  void WarmCache(double fraction);

  // --- Fault hooks (src/fault/) ---
  // Stop-the-world pause (language-runtime GC, hypervisor freeze): no handler
  // burst starts until the pause lifts. In-flight device IO keeps completing,
  // but its reply serialization queues behind the pause, so clients see the
  // full stall — exactly the failure MittOS's EBUSY cannot predict and the
  // failover path must absorb.
  void Pause(DurationNs duration);
  // Process crash + restart: down for `downtime` (requests stall as in Pause),
  // then back with a cold page cache — the post-restart miss storm is the
  // interesting part.
  void CrashRestart(DurationNs downtime);
  uint64_t crashes() const { return crashes_; }

  int node_id() const { return node_id_; }
  sim::Simulator* sim() const { return sim_; }  // The owning shard's clock.
  os::Os& os() { return *os_; }
  cluster::CpuPool& cpu() { return *cpu_; }
  bool owns_cpu() const { return owned_cpu_ != nullptr; }
  uint64_t data_file() const { return data_file_; }
  int64_t data_file_size() const { return options_.num_keys * options_.slot_size; }
  const Options& options() const { return options_; }
  uint64_t gets_served() const { return gets_served_; }
  uint64_t ebusy_returned() const { return ebusy_returned_; }
  // Per-tenant cumulative counters (empty unless Options::tenant_slots > 0);
  // probed by the placement controller, borrowed not copied.
  const uint64_t* tenant_gets_data() const { return tenant_gets_.data(); }
  const uint64_t* tenant_ebusy_data() const { return tenant_ebusy_.data(); }
  uint32_t tenant_slots() const { return static_cast<uint32_t>(tenant_gets_.size()); }
  uint64_t degraded_admits() const { return degraded_gate_.admits(); }
  uint64_t degraded_sheds() const { return degraded_gate_.sheds(); }
  // Largest deadline the degraded path ever issued — the boundedness proof.
  DurationNs degraded_max_deadline() const { return degraded_max_deadline_; }

 private:
  int64_t OffsetOfKey(uint64_t key) const {
    return static_cast<int64_t>(key % static_cast<uint64_t>(options_.num_keys)) *
           options_.slot_size;
  }

  // One get being served, from its arrival to the reply burst: every event
  // on the way captures {this, record}. Pooled; released before `reply`
  // runs.
  struct Request {
    uint64_t key = 0;
    DurationNs deadline = 0;
    obs::TraceContext trace;
    uint32_t tenant = kNoTenant;
    int attempt = 0;  // Degraded path: reads issued so far.
    RichReplyFn reply;
    uint32_t pool_slot = 0;
    uint32_t pool_epoch = 0;
  };
  // A node serves a few dozen gets at once; small blocks keep a large
  // world's idle nodes light.
  static constexpr size_t kRequestBlock = 64;

  Request* NewRequest(uint64_t key, DurationNs deadline, obs::TraceContext trace,
                      RichReplyFn reply);
  void DoRead(Request* r);
  // Accounts the outcome and queues the reply-serialization burst.
  void Finish(Request* r, Status status, DurationNs hint);
  // Releases the record, then replies.
  void Respond(Request* r, Status status, DurationNs hint);
  void DegradedAttempt(Request* r);

  sim::Simulator* sim_;
  int node_id_;
  Options options_;
  std::unique_ptr<os::Os> os_;
  std::unique_ptr<cluster::CpuPool> owned_cpu_;
  cluster::CpuPool* cpu_ = nullptr;
  uint64_t data_file_ = 0;
  uint64_t gets_served_ = 0;
  uint64_t ebusy_returned_ = 0;
  std::vector<uint64_t> tenant_gets_;
  std::vector<uint64_t> tenant_ebusy_;
  uint64_t crashes_ = 0;
  resilience::AdmissionGate degraded_gate_;
  DurationNs degraded_max_deadline_ = 0;
  SlotPool<Request, kRequestBlock> requests_;
};

}  // namespace mitt::kv

#endif  // MITTOS_KV_DOC_STORE_NODE_H_
