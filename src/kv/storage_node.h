// StorageNode: the server request path both §5 stores share.
//
// MittOS enters a storage server at one place — the storage read carries the
// request's deadline, and its EBUSY goes straight back to the client — so the
// MongoDB-like DocStoreNode and the LevelDB-under-Riak lsm::LsmNode wrap that
// read the same way. This class is that wrapping:
//
//   * get: a handler CPU burst, the store's read, then the reply burst;
//   * degraded get (src/resilience/): admission behind a load-shed gate, and
//     an admitted read that retries EBUSY with escalating, capped deadlines;
//   * put: the same record and bursts around the store's write;
//   * the node's fault hooks (src/fault/): stop-the-world pause and
//     crash-restart;
//   * the get / EBUSY / per-tenant counters the harness and the placement
//     controller read.
//
// A store supplies only Read and Write. The node owns its Os and, unless
// several nodes share one, its CpuPool; every event it schedules runs on its
// own shard's simulator.

#ifndef MITTOS_KV_STORAGE_NODE_H_
#define MITTOS_KV_STORAGE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/cpu_pool.h"
#include "src/common/inline_function.h"
#include "src/common/slot_pool.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/trace.h"
#include "src/os/os.h"
#include "src/resilience/admission_gate.h"
#include "src/sim/simulator.h"
#include "src/tenant/tenant.h"

namespace mitt::kv {

// A server's reply to one get or put: the status plus, for EBUSY, the OS'
// predicted wait (§7.8.1's interface extension; 0 when the server has no
// hint, and always 0 for a put). Move-only with 48 bytes of inline capture
// (InlineFunction).
using RichReplyFn = InlineFunction<void(Status, DurationNs predicted_wait)>;

class StorageNode {
 public:
  // The options both stores' nodes share.
  struct Options {
    os::OsOptions os;
    int cpu_cores = 8;
    DurationNs handler_cpu = Micros(30);  // Parse + dispatch + reply.
    // Entries the node holds; it serves key k from entry k mod num_keys.
    int64_t num_keys = 1 << 20;
    // Per-tenant accounting (src/tenant/): >0 sizes a dense gets counter
    // array indexed by tenant id — one array increment on the get path, no
    // allocation. 0 disables (single-tenant worlds pay nothing).
    uint32_t tenant_slots = 0;
  };

  // Degraded-read bounds: at most kDegradedMaxInflight admitted degraded
  // reads per node, each issued at most kDegradedMaxAttempts times, with a
  // deadline that escalates up to kDegradedDeadlineCap and is never
  // disabled.
  static constexpr int kDegradedMaxInflight = 8;
  static constexpr int kDegradedMaxAttempts = 10;
  static constexpr DurationNs kDegradedDeadlineCap = Seconds(2);
  // The C++ exception round trip the paper measured on MongoDB's EBUSY path
  // before it added the exceptionless one (DocStoreNode's
  // exception_on_ebusy).
  static constexpr DurationNs kEbusyExceptionCost = Micros(200);

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;
  virtual ~StorageNode() = default;

  // Serves one get(). `deadline` of sched::kNoDeadline means no SLO (vanilla
  // request). Replies kOk, kNotFound or kEbusy plus the store's wait hint.
  // `trace` identifies the originating client request for src/obs/
  // (default: untraced); `tenant` attributes the get to a tenant slot when
  // accounting is enabled.
  void HandleGetWithHint(uint64_t key, DurationNs deadline, RichReplyFn reply,
                         obs::TraceContext trace = {},
                         tenant::TenantId tenant = tenant::kNoTenant);

  // Degraded read (all replicas rejected): over the gate's capacity it
  // replies kUnavailable with the device floor as the wait hint. Admitted
  // reads loop on EBUSY, waiting out the wait hint (at least 50 us) and
  // escalating the deadline up to kDegradedDeadlineCap, so completion is
  // guaranteed without unbounded queueing.
  void HandleDegradedGet(uint64_t key, DurationNs deadline, RichReplyFn reply,
                         obs::TraceContext trace = {});

  // Serves one put(): the store's write between two handler bursts.
  void HandlePut(uint64_t key, RichReplyFn reply);

  // --- Fault hooks (src/fault/) ---
  // Stop-the-world pause (language-runtime GC, hypervisor freeze): no handler
  // burst starts until the pause lifts. In-flight device IO keeps completing,
  // but its reply serialization queues behind the pause, so clients see the
  // full stall — exactly the failure MittOS's EBUSY cannot predict and the
  // failover path must absorb.
  void Pause(DurationNs duration);
  // Process crash + restart: down for `downtime` (requests stall as in Pause),
  // then back with a cold page cache — the post-restart miss storm is the
  // interesting part. Store state above the Os (an LSM node's memtable) is
  // kept: no log replay is modeled.
  void CrashRestart(DurationNs downtime);

  int node_id() const { return node_id_; }
  sim::Simulator* sim() const { return sim_; }  // The owning shard's clock.
  os::Os& os() { return *os_; }
  cluster::CpuPool& cpu() { return *cpu_; }
  bool owns_cpu() const { return owned_cpu_ != nullptr; }
  uint64_t gets_served() const { return gets_served_; }
  uint64_t ebusy_returned() const { return ebusy_returned_; }
  // Per-tenant cumulative get counters (empty unless the node was built
  // with tenant slots); probed by the placement controller, borrowed not
  // copied.
  const uint64_t* tenant_gets_data() const { return tenant_gets_.data(); }
  uint32_t tenant_slots() const { return static_cast<uint32_t>(tenant_gets_.size()); }
  uint64_t degraded_admits() const { return degraded_gate_.admits(); }
  uint64_t degraded_sheds() const { return degraded_gate_.sheds(); }
  // Largest deadline the degraded path ever issued — the boundedness proof.
  DurationNs degraded_max_deadline() const { return degraded_max_deadline_; }

 protected:
  // Builds the node's Os, seeded with `options.os.seed ^ node_id *
  // seed_salt`, then its CPU pool: `shared_cpu` (several nodes contending
  // for one machine's cores, §7.5) or, when null, one of its own. A store
  // builds its data (file or tree) after this returns. `exception_on_ebusy`
  // adds kEbusyExceptionCost to every EBUSY reply burst.
  StorageNode(sim::Simulator* sim, int node_id, const Options& options, uint64_t seed_salt,
              cluster::CpuPool* shared_cpu, bool exception_on_ebusy);

  // One get or put being served, from its arrival to the reply burst: every
  // event on the way captures {this, record}. Pooled; released before
  // `reply` runs.
  struct Request {
    uint64_t key = 0;
    DurationNs deadline = 0;  // Gets only.
    obs::TraceContext trace;
    bool degraded = false;  // Arrived through HandleDegradedGet.
    int attempt = 0;        // Degraded path: reads issued so far.
    RichReplyFn reply;
    uint32_t pool_slot = 0;
    uint32_t pool_epoch = 0;
  };

  // The store's read of r->key under r->deadline. Ends in exactly one
  // ReadDone(r, status, hint), where `hint` is the wait the store predicts
  // before a retry could be served (0 when it has none). A degraded read
  // (r->degraded) waits its EBUSY's hint out before the next attempt.
  virtual void Read(Request* r) = 0;
  void ReadDone(Request* r, Status status, DurationNs hint);

  // The store's write of r->key. Ends in exactly one WriteDone(r, status),
  // when the write may be acked.
  virtual void Write(Request* r) = 0;
  void WriteDone(Request* r, Status status);

 private:
  // A node serves a few dozen gets at once; small blocks keep a large
  // world's idle nodes light.
  static constexpr size_t kRequestBlock = 64;

  Request* NewRequest(uint64_t key, DurationNs deadline, obs::TraceContext trace,
                      RichReplyFn reply);
  // Accounts the outcome and queues the reply-serialization burst.
  void Finish(Request* r, Status status, DurationNs hint);
  // Releases the record, then replies.
  void Respond(Request* r, Status status, DurationNs hint);
  void DegradedAttempt(Request* r);

  sim::Simulator* sim_;
  int node_id_;
  DurationNs handler_cpu_;
  bool exception_on_ebusy_;
  std::unique_ptr<os::Os> os_;
  std::unique_ptr<cluster::CpuPool> owned_cpu_;
  cluster::CpuPool* cpu_ = nullptr;
  uint64_t gets_served_ = 0;
  uint64_t ebusy_returned_ = 0;
  std::vector<uint64_t> tenant_gets_;
  resilience::AdmissionGate degraded_gate_{kDegradedMaxInflight};
  DurationNs degraded_max_deadline_ = 0;
  SlotPool<Request, kRequestBlock> requests_;
};

}  // namespace mitt::kv

#endif  // MITTOS_KV_STORAGE_NODE_H_
