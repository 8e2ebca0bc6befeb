#include "src/client/mittos_client.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/obs/metrics.h"
#include "src/resilience/deadline_budget.h"

namespace mitt::client {
namespace {

constexpr int kMaxReplicas = tenant::ReplicaGroup::kMaxReplication;
constexpr DurationNs kNoHint = -1;

// kResilient's all-busy degradation: full degraded re-walks before giving
// up. A degraded attempt's deadline is capped at the server's escalation cap
// (kv::StorageNode::kDegradedDeadlineCap) — bounded, never disabled.
constexpr int kDegradedMaxRounds = 12;

// A replica is fail-slow only when its success latency alone breaks the SLO;
// sub-deadline contention is the predictor's business, not the breaker's.
resilience::ReplicaHealthOptions HealthWithSloFloor(const MittosStrategy::Options& options) {
  resilience::ReplicaHealthOptions health = options.health;
  health.latency_floor = std::max(health.latency_floor, options.deadline);
  return health;
}

}  // namespace

// One logical get. Late replies from attempts the timer already abandoned
// check the settle-once latch before doing anything user-visible.
struct MittosStrategy::GetState : GetRecord {
  // Under kResilient the attempt timer and the reply race for each hop.
  enum class HopState : uint8_t {
    kInFlight,
    kReplied,
    // The timer fired and the retry budget denied a resend: the late reply
    // is the only thing still driving the get.
    kTimedOut,
    // The timer got a retry token and scheduled a backoff-resume: the walk
    // has a new driver, so the late reply must not also advance it.
    kRetried,
  };
  struct Hop {
    DurationNs hint = kNoHint;  // The replica's EBUSY wait hint.
    TimeNs sent_at = 0;
    sim::EventId timer = sim::kInvalidEventId;
    HopState state = HopState::kInFlight;
  };

  // Replica indices by EBUSY wait hint into `order`: shortest first,
  // replicas that never sent one (timeout, unknown hint) last, ties in walk
  // order so the health ordering still breaks them. An insertion sort:
  // stable and allocation-free.
  void OrderByHint() {
    auto wait = [this](int i) { return hops[i].hint == kNoHint ? INT64_MAX : hops[i].hint; };
    for (int i = 0; i < replicas.size; ++i) {
      int j = i;
      for (; j > 0 && wait(order[j - 1]) > wait(i); --j) {
        order[j] = order[j - 1];
      }
      order[j] = i;
    }
  }

  uint64_t key = 0;
  tenant::TenantId tenant = tenant::kNoTenant;
  DurationNs slo = 0;
  tenant::ReplicaGroup replicas;  // Health-ordered at Get() time under kResilient.
  Hop hops[kMaxReplicas];         // Indexed like `replicas`.
  int order[kMaxReplicas] = {};   // Filled by OrderByHint() for the exits.
  int next = 0;
  resilience::DeadlineBudget budget{0, 0};
  // Remaining budget sent by the previous primary-walk hop; <0 until the
  // first hop. Feeds the budget-monotonicity oracle counter.
  DurationNs last_sent_remaining = -1;
  int degraded_next = 0;
  Status last_degraded_status = Status::Unavailable();
  obs::TraceContext trace;
};

MittosStrategy::MittosStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                               const Options& options)
    : GetStrategy(sim, cluster, seed),
      options_(options),
      health_(sim, cluster->num_nodes(), HealthWithSloFloor(options), seed ^ 0x4EA1'74C3ULL),
      retry_budget_(options.retry),
      backoff_(resilience::BackoffOptions{}, seed ^ 0xBAC0'0FF5ULL) {}

MittosStrategy::~MittosStrategy() = default;

DurationNs MittosStrategy::NoteSentDeadline(DurationNs deadline) {
  // The bounded-deadline contract: kResilient never disables a deadline.
  deadline = resilience::ClampDeadline(deadline);
  if (deadline < 0) {
    deadline = 0;  // Unlimited budgets still go out bounded (caller floors them).
  }
  max_sent_deadline_ = std::max(max_sent_deadline_, deadline);
  return deadline;
}

void MittosStrategy::Get(uint64_t key, const GetContext& ctx, GetDoneFn done) {
  GetState* g = gets_.Acquire(std::move(done));
  g->key = key;
  g->tenant = ctx.tenant;
  g->slo = ctx.deadline > 0 ? ctx.deadline : options_.deadline;
  g->replicas = RouteReplicas(key, ctx.tenant);
  if (resilient()) {
    health_.OrderReplicas(std::span<int>(g->replicas.node, static_cast<size_t>(g->replicas.size)));
    g->budget = resilience::DeadlineBudget(g->slo, sim_->Now());
  }
  g->trace = BeginTrace();
  TryNext(g);
}

void MittosStrategy::Finish(GetState* g, Status status) {
  if (!g->settled && status.ok()) {
    retry_budget_.OnSuccess();
    backoff_.Reset();
  }
  Settle(g, status);
}

void MittosStrategy::ScheduleBackoff(GetState* g, int round) {
  const DurationNs delay = backoff_.Next();
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled() && g->trace.traced()) {
    tr->RecordSpan(obs::SpanKind::kBackoff, g->trace, sim_->Now(), sim_->Now() + delay);
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("resilience_backoff_total").Add();
  }
  gets_.Hold(g);
  sim_->Schedule(delay, [this, g, round] {
    if (round < 0) {
      TryNext(g);
    } else {
      StartDegraded(g, round);
    }
    gets_.Drop(g);
  });
}

void MittosStrategy::TryNext(GetState* g) {
  if (g->settled) {
    return;
  }
  const TimeNs now = sim_->Now();
  // kMittos saves the last replica for the unbounded exit (§5, modification
  // (3)); the other presets bound a try at every replica first.
  const int bounded_hops =
      options_.preset == MittosPreset::kMittos ? g->replicas.size - 1 : g->replicas.size;
  if (resilient()) {
    if (g->budget.Exhausted(now)) {
      ++deadline_exhausted_;
      if (obs::MetricsRegistry* m = sim_->metrics()) {
        m->counter("resilience_deadline_exhausted_total").Add();
      }
      Exit(g);
      return;
    }
    // Half-open replicas admit exactly one probe; when another get holds the
    // probe slot, skip past them (open replicas at the tail stay reachable as
    // the walk's last resort).
    while (g->next < bounded_hops) {
      const int candidate = g->replicas.node[g->next];
      if (health_.state(candidate) != resilience::BreakerState::kHalfOpen ||
          health_.AcquireProbe(candidate)) {
        break;
      }
      ++g->next;
    }
  }
  if (g->next >= bounded_hops) {
    Exit(g);
    return;
  }
  const int index = g->next++;
  ++g->tries;
  DurationNs deadline = g->slo;
  if (resilient()) {
    deadline = NoteSentDeadline(g->budget.unlimited() ? g->slo : g->budget.Remaining(now));
    if (g->last_sent_remaining >= 0 && deadline > g->last_sent_remaining) {
      ++budget_regressions_;
    }
    g->last_sent_remaining = deadline;
    // The attempt timer exists for replies that never come inside the SLO —
    // dropped packets (retransmitted 200 ms later), paused nodes, partitions.
    // Generous on purpose: remaining budget + a full round trip + one more
    // SLO, so a healthy world never races it.
    GetState::Hop& hop = g->hops[index];
    hop.sent_at = now;
    gets_.Hold(g);
    hop.timer = sim_->Schedule(deadline + 2 * network_->round_trip_estimate() + g->slo,
                               [this, g, index] {
                                 OnTimer(g, index);
                                 gets_.Drop(g);
                               });
  }
  gets_.Hold(g);
  SendGetWithHint(
      g->replicas.node[index], g->key, deadline,
      [this, g, index](Status status, DurationNs hint) {
        OnReply(g, index, status, hint);
        gets_.Drop(g);
      },
      g->trace, g->tenant);
}

void MittosStrategy::OnTimer(GetState* g, int index) {
  GetState::Hop& hop = g->hops[index];
  if (hop.state != GetState::HopState::kInFlight || g->settled) {
    return;
  }
  hop.state = GetState::HopState::kTimedOut;
  ++timeouts_fired_;
  health_.OnTimeout(g->replicas.node[index]);
  // Retry governance: a timeout retry re-sends work the cluster may still be
  // doing — only amplify when the token bucket allows, and never
  // back-to-back. A denied retry waits for the outstanding reply (the
  // network model always redelivers eventually), which is exactly the
  // no-amplification behavior a retry storm needs.
  if (retry_budget_.TryAcquire()) {
    hop.state = GetState::HopState::kRetried;
    ScheduleBackoff(g, /*round=*/-1);
  } else if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("resilience_retry_denied_total").Add();
  }
}

void MittosStrategy::OnReply(GetState* g, int index, Status status, DurationNs hint) {
  GetState::Hop& hop = g->hops[index];
  if (resilient()) {
    // Health sees every reply, even stale ones — a late answer is still
    // evidence about the replica.
    health_.OnReply(g->replicas.node[index], sim_->Now() - hop.sent_at, status.busy());
    if (hop.state == GetState::HopState::kInFlight) {
      hop.state = GetState::HopState::kReplied;
      if (sim_->Cancel(hop.timer)) {
        gets_.Drop(g);  // The timer's reference; this reply still holds one.
      }
    } else if (!status.ok() &&
               (options_.test_swallow_late_reply || hop.state == GetState::HopState::kRetried)) {
      // The timer abandoned this attempt. A late success still rescues the
      // get, and when the timer was denied a resend this late reply is the
      // only thing still driving the get, so a late EBUSY (or error) must
      // advance the walk, not be swallowed. test_swallow_late_reply
      // reinstates the swallow as the chaos search's planted bug.
      return;
    }
  }
  if (g->settled) {
    return;
  }
  if (status.busy()) {
    hop.hint = hint;
    ++ebusy_failovers_;
    RecordFailover(g->trace);
    TryNext(g);  // Instant, exceptionless failover (§5) — no backoff.
    return;
  }
  Finish(g, status);
}

void MittosStrategy::Exit(GetState* g) {
  if (resilient()) {
    StartDegraded(g, 0);
    return;
  }
  // The deadline-disabled try, so users never get IO errors while data is
  // available (§5). Once every replica has rejected, it waits on the least
  // busy one (§7.8.1's proposed informed retry).
  int index = g->next;
  if (index >= g->replicas.size) {
    g->OrderByHint();
    index = g->order[0];
  }
  ++unbounded_tries_;
  ++g->tries;
  gets_.Hold(g);
  SendGetWithHint(
      g->replicas.node[index], g->key, sched::kNoDeadline,
      [this, g](Status status, DurationNs) {
        Finish(g, status);
        gets_.Drop(g);
      },
      g->trace, g->tenant);
}

void MittosStrategy::StartDegraded(GetState* g, int round) {
  if (g->settled) {
    return;
  }
  // Min-wait-hint first: §7.8.1's informed pick. Re-ordered every round, as
  // late primary replies may have brought new hints.
  g->OrderByHint();
  g->degraded_next = 0;
  DegradedNext(g, round);
}

void MittosStrategy::DegradedNext(GetState* g, int round) {
  if (g->settled) {
    return;
  }
  if (g->degraded_next >= g->replicas.size) {
    // Every replica shed this round: the whole cluster is saturated beyond
    // its degraded-admission capacity. Back off and re-walk; slots free up
    // as admitted reads complete.
    if (round + 1 >= kDegradedMaxRounds) {
      Finish(g, g->last_degraded_status);
      return;
    }
    ScheduleBackoff(g, round + 1);
    return;
  }
  const int index = g->order[g->degraded_next++];
  ++g->tries;
  ++degraded_gets_;
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("resilience_degraded_total").Add();
  }
  // Give the degraded server at least one full SLO to work with — bounded,
  // never disabled. When the replica's EBUSY told us its predicted wait, send
  // hint + SLO so the very first degraded attempt admits instead of burning a
  // server-side reject/wait/escalate cycle; the cap is the server's.
  DurationNs deadline =
      std::max(g->budget.unlimited() ? g->slo : g->budget.Remaining(sim_->Now()), g->slo);
  if (g->hops[index].hint != kNoHint) {
    deadline = std::max(deadline, g->hops[index].hint + g->slo);
  }
  deadline = NoteSentDeadline(std::min(deadline, kv::StorageNode::kDegradedDeadlineCap));
  gets_.Hold(g);
  SendDegradedGet(
      g->replicas.node[index], g->key, deadline,
      [this, g, round](Status status, DurationNs) {
        OnDegradedReply(g, round, status);
        gets_.Drop(g);
      },
      g->trace);
}

void MittosStrategy::OnDegradedReply(GetState* g, int round, Status status) {
  if (g->settled) {
    return;
  }
  g->last_degraded_status = status;
  if (status.code() == StatusCode::kUnavailable) {
    ++degraded_sheds_seen_;
    DegradedNext(g, round);
    return;
  }
  Finish(g, status);
}

}  // namespace mitt::client
