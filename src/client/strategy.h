// Client-side tail-tolerance strategies (§7.2's comparison set).
//
// Every strategy implements one replicated get() over the cluster; the
// experiment harness runs identical workloads and noise replays through each
// strategy and compares the completion-time distributions. The shared
// plumbing (network round trip to a chosen replica) lives in the base class.

#ifndef MITTOS_CLIENT_STRATEGY_H_
#define MITTOS_CLIENT_STRATEGY_H_

#include <cstdint>

#include "src/cluster/cluster.h"
#include "src/common/inline_function.h"
#include "src/common/rng.h"
#include "src/common/slot_pool.h"
#include "src/common/status.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/tenant/placement.h"
#include "src/tenant/tenant.h"

namespace mitt::client {

// Completion of one replicated get: final status (kOk, or an error for
// strategies that surface timeouts as user errors, §2) and how many tries
// (server contacts) it took.
struct GetResult {
  Status status;
  int tries = 1;
};

// Move-only with 48 bytes of inline capture (InlineFunction): the harness's
// completions capture a few pointers and fit, so issuing a Get allocates
// nothing. Strategies move it, never copy it.
using GetDoneFn = InlineFunction<void(const GetResult&)>;

// One server contact's reply on the client's home shard: status plus the
// server's EBUSY wait hint (0 when it sent none).
using ReplyFn = InlineFunction<void(Status status, DurationNs hint)>;

// Per-request context for tenant-aware gets (src/tenant/): which tenant the
// request belongs to (routes via the attached placement map and is accounted
// per tenant on the server) and an optional per-request SLO deadline
// override (0 = the strategy's configured deadline) carrying the tenant's
// class SLO.
struct GetContext {
  tenant::TenantId tenant = tenant::kNoTenant;
  DurationNs deadline = 0;
};

class GetStrategy {
 public:
  GetStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed);
  virtual ~GetStrategy() = default;

  // Issues one replicated get for `key`; calls `done` exactly once.
  virtual void Get(uint64_t key, GetDoneFn done) = 0;

  // Tenant-aware issue. Strategies that understand placement routing and
  // per-class deadlines override this; the default drops the context and
  // behaves like the single-tenant Get.
  virtual void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) {
    (void)ctx;
    Get(key, std::move(done));
  }

  // Attaches the tenant->replica placement map consulted by RouteReplicas.
  // The map is owned by the harness; the placement controller mutates it
  // only at quiesced barriers (see src/tenant/placement.h).
  void set_placement(const tenant::PlacementMap* placement) { placement_ = placement; }

 protected:
  // One request/reply round trip to `node`; `on_reply` runs on this
  // client's home shard. EBUSY replies carry the server's predicted wait
  // (§7.8.1's interface extension). `trace` ties the server-side spans back
  // to this client request (src/obs/; default: untraced); `tenant` rides
  // along so the server's per-tenant accounting sees it.
  void SendGetWithHint(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
                       obs::TraceContext trace = {}, tenant::TenantId tenant = tenant::kNoTenant);

  // Round trip into the server's *degraded* read path (src/resilience/):
  // bounded admission behind a load-shed gate, bounded escalating deadlines.
  // Replies kUnavailable (+ wait hint) when the gate sheds.
  void SendDegradedGet(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
                       obs::TraceContext trace = {});

  // Starts a trace for one logical get(): a fresh deterministic request id
  // when a tracer is attached and enabled, an untraced context otherwise.
  obs::TraceContext BeginTrace();

  // Records the client-side failover hop (retrying another replica after an
  // EBUSY or a timeout) as an instant span.
  void RecordFailover(const obs::TraceContext& trace);

  tenant::ReplicaGroup Replicas(uint64_t key) const { return cluster_->ReplicasOf(key); }

  // Tenant-aware replica set: the tenant's placement group when a map is
  // attached and the tenant is known, the key's ring replicas otherwise.
  // Both are dense-array copies, so routing allocates nothing.
  tenant::ReplicaGroup RouteReplicas(uint64_t key, tenant::TenantId tenant) const;

  sim::Simulator* sim_;
  cluster::Cluster* cluster_;
  Rng rng_;
  const tenant::PlacementMap* placement_ = nullptr;

 private:
  // One server contact in flight. Written on the home shard before the
  // request hop; the node's shard only reads it; the reply hop brings it
  // home, where it is released before `on_reply` runs.
  struct Hop {
    uint64_t key = 0;
    DurationNs deadline = 0;
    obs::TraceContext trace;
    tenant::TenantId tenant = tenant::kNoTenant;
    int node = 0;
    int home = 0;  // The client's shard.
    bool degraded = false;
    ReplyFn on_reply;
    uint32_t pool_slot = 0;
    uint32_t pool_epoch = 0;
  };

  void Send(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
            obs::TraceContext trace, tenant::TenantId tenant, bool degraded);
  // Runs on the node's shard, which only reads the record: hands the
  // request to the server.
  void Serve(Hop* hop);
  // Runs on the home shard when the reply lands.
  void OnReply(Hop* hop, Status status, DurationNs hint);

  SlotPool<Hop> hops_;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_STRATEGY_H_
