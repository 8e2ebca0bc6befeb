#include "src/client/strategy.h"

#include "src/resilience/deadline_budget.h"

namespace mitt::client {

GetStrategy::GetStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed)
    : sim_(sim), cluster_(cluster), rng_(seed) {}

void GetStrategy::SendGetWithHint(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
                                  obs::TraceContext trace, tenant::TenantId tenant) {
  Send(node, key, deadline, std::move(on_reply), trace, tenant, /*degraded=*/false);
}

void GetStrategy::SendDegradedGet(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
                                  obs::TraceContext trace) {
  Send(node, key, deadline, std::move(on_reply), trace, tenant::kNoTenant, /*degraded=*/true);
}

void GetStrategy::Send(int node, uint64_t key, DurationNs deadline, ReplyFn on_reply,
                       obs::TraceContext trace, tenant::TenantId tenant, bool degraded) {
  Hop* hop = hops_.Acquire();
  hop->key = key;
  // Underflow guard at the send boundary: a caller whose remaining-deadline
  // arithmetic went negative must read as "no time left" (0), never alias
  // into kNoDeadline (-1) and disable the SLO.
  hop->deadline = resilience::ClampDeadline(deadline);
  hop->trace = trace;
  hop->tenant = tenant;
  hop->node = node;
  hop->home = sim_->shard_id();
  hop->degraded = degraded;
  hop->on_reply = std::move(on_reply);
  // Both hops are tagged with the storage-node endpoint so per-link faults
  // (src/fault/) hit requests to / replies from that node. The request hop
  // runs on the node's shard; the reply hop routes back to this client's
  // home shard so the continuation fires on the simulator that issued it.
  cluster::Network& net = cluster_->network();
  net.Deliver(node, net.ShardOfNode(node), [this, hop] { Serve(hop); });
}

void GetStrategy::Serve(Hop* hop) {
  kv::DocStoreNode& server = cluster_->node(hop->node);
  auto reply = [this, hop](Status status, DurationNs hint) {
    cluster_->network().Deliver(hop->node, hop->home,
                                [this, hop, status, hint] { OnReply(hop, status, hint); });
  };
  if (hop->degraded) {
    server.HandleDegradedGet(hop->key, hop->deadline, reply, hop->trace);
  } else {
    server.HandleGetWithHint(hop->key, hop->deadline, reply, hop->trace, hop->tenant);
  }
}

void GetStrategy::OnReply(Hop* hop, Status status, DurationNs hint) {
  ReplyFn on_reply = std::move(hop->on_reply);
  hops_.Release(hop);
  on_reply(status, hint);
}

tenant::ReplicaGroup GetStrategy::RouteReplicas(uint64_t key, tenant::TenantId tenant) const {
  if (placement_ != nullptr && tenant != tenant::kNoTenant &&
      tenant < placement_->num_tenants()) {
    return placement_->group(tenant);
  }
  return cluster_->ReplicasOf(key);
}

obs::TraceContext GetStrategy::BeginTrace() {
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled()) {
    return obs::TraceContext{tr->NewRequestId(), /*node=*/-1};
  }
  return {};
}

void GetStrategy::RecordFailover(const obs::TraceContext& trace) {
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled() && trace.traced()) {
    tr->RecordInstant(obs::SpanKind::kFailover, trace, sim_->Now());
  }
}

}  // namespace mitt::client
