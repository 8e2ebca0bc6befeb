#include "src/client/timeout.h"

#include <utility>

namespace mitt::client {

// One logical get. Only the newest attempt can still settle it: an older
// attempt's timer already fired (that is what started the newer one), so
// its late reply is stale. `refs` counts the scheduled events holding the
// record — each attempt's reply and its pending timer — and the record goes
// back to the pool once the get has finished and the last of them is gone.
struct TimeoutStrategy::GetState {
  uint64_t key = 0;
  GetContext ctx;
  obs::TraceContext trace;
  GetDoneFn done;
  int try_index = 0;  // The newest attempt.
  sim::EventId timer = sim::kInvalidEventId;
  bool finished = false;
  int refs = 0;
  uint32_t pool_slot = 0;
  uint32_t pool_epoch = 0;
};

TimeoutStrategy::TimeoutStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                                 const Options& options)
    : GetStrategy(sim, cluster, seed), options_(options) {}

TimeoutStrategy::~TimeoutStrategy() = default;

void TimeoutStrategy::Get(uint64_t key, GetDoneFn done) {
  Get(key, GetContext{}, std::move(done));
}

void TimeoutStrategy::Get(uint64_t key, const GetContext& ctx, GetDoneFn done) {
  GetState* g = gets_.Acquire();
  g->key = key;
  g->ctx = ctx;
  g->done = std::move(done);
  g->trace = BeginTrace();
  Attempt(g);
}

void TimeoutStrategy::Attempt(GetState* g) {
  const tenant::ReplicaGroup replicas = RouteReplicas(g->key, g->ctx.tenant);
  const int try_index = g->try_index;
  const int node =
      replicas.node[static_cast<size_t>(try_index) % static_cast<size_t>(replicas.size)];
  const bool last_try = try_index + 1 >= options_.max_tries;
  const DurationNs timeout = g->ctx.deadline > 0 ? g->ctx.deadline : options_.timeout;

  // One timer + one reply race; whichever fires first settles this attempt.
  g->timer = sim::kInvalidEventId;
  if (!last_try && timeout > 0) {
    ++g->refs;
    g->timer = sim_->Schedule(timeout, [this, g, try_index] {
      OnTimer(g, try_index);
      Drop(g);
    });
  }
  ++g->refs;
  SendGetWithHint(
      node, g->key, sched::kNoDeadline,
      [this, g, try_index](Status status, DurationNs) {
        OnReply(g, try_index, status);
        Drop(g);
      },
      g->trace, g->ctx.tenant);
}

void TimeoutStrategy::OnTimer(GetState* g, int try_index) {
  if (g->finished || try_index != g->try_index) {
    return;
  }
  ++timeouts_fired_;
  if (!options_.failover_on_timeout) {
    // The user receives a read error even though less-busy replicas are
    // available (§2's surprising finding).
    Finish(g, Status::Timeout());
    return;
  }
  RecordFailover(g->trace);
  ++g->try_index;
  Attempt(g);
}

void TimeoutStrategy::OnReply(GetState* g, int try_index, Status status) {
  if (g->finished || try_index != g->try_index) {
    return;  // Timed out earlier; this reply is stale (app-level cancel).
  }
  if (g->timer != sim::kInvalidEventId && sim_->Cancel(g->timer)) {
    --g->refs;  // The caller's reference keeps the record alive.
  }
  Finish(g, status);
}

void TimeoutStrategy::Finish(GetState* g, Status status) {
  g->finished = true;
  GetDoneFn done = std::move(g->done);
  done({status, g->try_index + 1});
}

void TimeoutStrategy::Drop(GetState* g) {
  if (--g->refs == 0 && g->finished) {
    gets_.Release(g);
  }
}

}  // namespace mitt::client
