// The store seam under the client strategies (src/client/): what one
// replicated get needs from whatever holds the replicas. Two stores
// implement it — cluster::Cluster (DocStore nodes, §5's MongoDB integration)
// and kv::LsmRing (LSM nodes, §5's LevelDB + Riak integration) — so one
// EBUSY failover walk, client::MittosStrategy, serves both.

#ifndef MITTOS_KV_REPLICATED_STORE_H_
#define MITTOS_KV_REPLICATED_STORE_H_

#include <cstdint>

#include "src/cluster/network.h"
#include "src/common/inline_function.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/trace.h"
#include "src/sched/io_request.h"
#include "src/tenant/placement.h"

namespace mitt::kv {

// A server's reply to one get: the status plus, for EBUSY, the OS'
// predicted wait (§7.8.1's interface extension; 0 when the server has no
// hint). Move-only with 48 bytes of inline capture (InlineFunction).
using RichReplyFn = InlineFunction<void(Status, DurationNs predicted_wait)>;

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

  // Serves one get on `node`; called on the node's shard. `deadline` of
  // sched::kNoDeadline means no SLO. Replies kOk, kNotFound or kEbusy (+
  // wait hint). `trace` and `tenant` feed the server's spans and per-tenant
  // accounting where it keeps them.
  virtual void HandleGetWithHint(int node, uint64_t key, DurationNs deadline, RichReplyFn reply,
                                 obs::TraceContext trace, tenant::TenantId tenant) = 0;

  // The node's degraded read (all replicas rejected, src/resilience/):
  // bounded admission behind a shed gate — kUnavailable when over capacity —
  // and bounded escalating deadlines. Called on the node's shard.
  virtual void HandleDegradedGet(int node, uint64_t key, DurationNs deadline, RichReplyFn reply,
                                 obs::TraceContext trace) = 0;
};

}  // namespace mitt::kv

#endif  // MITTOS_KV_REPLICATED_STORE_H_
