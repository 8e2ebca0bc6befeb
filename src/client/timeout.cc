#include "src/client/timeout.h"

#include <utility>

namespace mitt::client {

// One logical get; `tries - 1` is the newest try. At most one timer is
// pending, the newest try's: an older try's timer already fired (that is
// what sent the newer try).
struct TimeoutStrategy::GetState : GetRecord {
  uint64_t key = 0;
  GetContext ctx;
  obs::TraceContext trace;
  sim::EventId timer = sim::kInvalidEventId;
};

TimeoutStrategy::TimeoutStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                                 const Options& options)
    : GetStrategy(sim, cluster, seed), options_(options) {}

TimeoutStrategy::~TimeoutStrategy() = default;

void TimeoutStrategy::Get(uint64_t key, const GetContext& ctx, GetDoneFn done) {
  GetState* g = gets_.Acquire(std::move(done));
  g->key = key;
  g->ctx = ctx;
  g->trace = BeginTrace();
  Attempt(g);
}

void TimeoutStrategy::Attempt(GetState* g) {
  const tenant::ReplicaGroup replicas = RouteReplicas(g->key, g->ctx.tenant);
  const int try_index = g->tries++;
  const int node =
      replicas.node[static_cast<size_t>(try_index) % static_cast<size_t>(replicas.size)];
  const bool last_try = g->tries >= options_.max_tries;
  const DurationNs timeout = g->ctx.deadline > 0 ? g->ctx.deadline : options_.timeout;

  // One timer + one reply race; whichever fires first settles this try.
  g->timer = sim::kInvalidEventId;
  if (!last_try && timeout > 0) {
    gets_.Hold(g);
    g->timer = sim_->Schedule(timeout, [this, g] {
      OnTimer(g);
      gets_.Drop(g);
    });
  }
  gets_.Hold(g);
  SendGetWithHint(
      node, g->key, sched::kNoDeadline,
      [this, g, try_index](Status status, DurationNs) {
        OnReply(g, try_index, status);
        gets_.Drop(g);
      },
      g->trace, g->ctx.tenant);
}

void TimeoutStrategy::OnTimer(GetState* g) {
  if (g->settled) {
    return;
  }
  ++timeouts_fired_;
  if (!options_.failover_on_timeout) {
    // The user receives a read error even though less-busy replicas are
    // available (§2's surprising finding).
    Settle(g, Status::Timeout());
    return;
  }
  RecordFailover(g->trace);
  Attempt(g);
}

void TimeoutStrategy::OnReply(GetState* g, int try_index, Status status) {
  if (g->settled || (options_.abandon_on_timeout && try_index != g->tries - 1)) {
    return;  // Settled already, or timed out earlier (app-level cancel).
  }
  if (g->timer != sim::kInvalidEventId && sim_->Cancel(g->timer)) {
    gets_.Drop(g);  // The timer's reference; this reply still holds one.
  }
  Settle(g, status);
}

}  // namespace mitt::client
