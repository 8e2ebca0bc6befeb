// The MittOS-powered client (§5) and its two extensions, written as three
// presets of one EBUSY failover walk. Every preset attaches the user's
// deadline SLO to the get and, on EBUSY, instantly fails over to the next
// replica. They differ only in how the hops are bounded and in the walk's
// exit when replicas keep rejecting:
//
//   kMittos     every hop carries the full SLO; the last replica's try
//               disables the deadline so the user never sees an IO error
//               (Prob(3 nodes busy) is small, §6 Observation #3).
//   kWait       §7.8.1: every replica gets a bounded try, and each EBUSY
//               reply carries the OS' predicted wait; when all reject, one
//               deadline-disabled try goes to the replica with the shortest
//               predicted wait instead of blindly to the last one — fixing
//               the ">p99 Hedged is faster" artifact of Fig. 11.
//   kResilient  src/resilience/ threaded through the walk:
//     1. DeadlineBudget — one budget anchored when the user issues the get;
//        every hop sends Remaining(now), so network RTTs and server time
//        already burned are deducted instead of silently re-promising the
//        full SLO per hop.
//     2. ReplicaHealth + circuit breakers — the walk is reordered away from
//        replicas whose breaker is open (EBUSY storms, fail-slow latency,
//        repeated timeouts); half-open replicas admit one probe.
//     3. Retry governance — a per-client retry token bucket plus
//        decorrelated-jitter backoff gates retries after *timeouts* (drops,
//        pauses, partitions — failures EBUSY cannot signal), so retransmit
//        storms cannot amplify load. EBUSY failovers stay instant: they are
//        the paper's point and are bounded by the replica count.
//     4. Graceful all-busy degradation — when every replica rejects or the
//        budget runs out, the get goes to the min-wait-hint replica's
//        *degraded* path (bounded server-side admission + bounded escalating
//        deadlines; see resilience::AdmissionGate) instead of re-sending with
//        the deadline disabled. Shed replies walk the next-best replica; a
//        fully-shed round backs off and re-walks, a bounded number of times.
//
// kMittos and kWait share one exit rule: the deadline-disabled try goes to
// the first untried replica if any, else to the min-hint one. kResilient
// never disables a deadline; max_sent_deadline() exposes the largest one it
// sent for the boundedness check. Determinism: breaker windows and backoff
// draws come from seeded per-instance RNG streams, so runs are bit-identical
// at any MITT_TRIAL_WORKERS.

#ifndef MITTOS_CLIENT_MITTOS_CLIENT_H_
#define MITTOS_CLIENT_MITTOS_CLIENT_H_

#include <cstdint>

#include "src/client/strategy.h"
#include "src/resilience/replica_health.h"
#include "src/resilience/retry_policy.h"

namespace mitt::client {

enum class MittosPreset : uint8_t { kMittos, kWait, kResilient };

class MittosStrategy : public GetStrategy {
 public:
  struct Options {
    MittosPreset preset = MittosPreset::kMittos;
    // The per-user deadline SLO (the p95 expected latency, §7.2). A tenant
    // get's class SLO (GetContext::deadline) replaces it for that get.
    DurationNs deadline = Millis(13);
    // kResilient's breakers, retry token bucket and timeout backoff.
    resilience::ReplicaHealthOptions health;
    resilience::RetryBudgetOptions retry;
    resilience::BackoffOptions backoff;
    // TEST ONLY. Reintroduces the denied-retry/late-EBUSY liveness bug the
    // resilient walk originally shipped with: when the attempt timer fired,
    // the retry budget denied the resend, and the late reply is an
    // EBUSY/error, the reply is swallowed instead of advancing the walk — the
    // get never settles. Kept behind this flag as the chaos-search engine's
    // planted ground truth (the exactly-once/conservation oracle must find
    // and shrink it); never set it in production configurations.
    bool test_swallow_late_reply = false;
  };

  MittosStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                 const Options& options);
  ~MittosStrategy() override;

  void Get(uint64_t key, GetDoneFn done) override;
  // Tenant-aware: routes via the placement map, sends the tenant's class SLO
  // (ctx.deadline) in place of the strategy deadline, and tags each
  // primary-walk hop with the tenant for the server's per-tenant accounting
  // (the server's degraded path keeps none).
  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

  // --- Counters (harness harvest) ---
  uint64_t ebusy_failovers() const { return ebusy_failovers_; }
  // Exit sends with the deadline disabled (kMittos, kWait) — the unbounded
  // tail kResilient exists to eliminate.
  uint64_t unbounded_tries() const { return unbounded_tries_; }
  uint64_t timeouts_fired() const { return timeouts_fired_; }
  uint64_t degraded_gets() const { return degraded_gets_; }
  uint64_t degraded_sheds_seen() const { return degraded_sheds_seen_; }
  uint64_t deadline_exhausted() const { return deadline_exhausted_; }
  uint64_t retry_denied() const { return retry_budget_.denied(); }
  // Largest deadline kResilient ever sent; must stay bounded (never
  // kNoDeadline). 0 for the other presets.
  DurationNs max_sent_deadline() const { return max_sent_deadline_; }
  // Times a primary-walk hop sent a *larger* remaining budget than the
  // previous hop of the same get. DeadlineBudget monotonicity says this must
  // be 0: time only moves forward, so Remaining() only shrinks. (The
  // degraded path is excluded by design — it deliberately re-escalates to at
  // least one full SLO, bounded by the degraded deadline cap.)
  uint64_t budget_regressions() const { return budget_regressions_; }
  const resilience::ReplicaHealthTracker& health() const { return health_; }

 private:
  struct GetState;

  bool resilient() const { return options_.preset == MittosPreset::kResilient; }
  void TryNext(GetState* g);
  void OnTimer(GetState* g, int index);
  void OnReply(GetState* g, int index, Status status, DurationNs hint);
  void Exit(GetState* g);
  void StartDegraded(GetState* g, int round);
  void DegradedNext(GetState* g, int round);
  void OnDegradedReply(GetState* g, int round, Status status);
  void Settle(GetState* g, Status status);
  // Backs off, then resumes the primary walk (round < 0) or degraded round
  // `round`.
  void ScheduleBackoff(GetState* g, int round);
  DurationNs NoteSentDeadline(DurationNs deadline);
  // Every scheduled event that refers to a get (a hop's reply, an attempt
  // timer, a backoff resume) holds one reference (GetState::refs) from
  // scheduling until it has fired or been cancelled; the last Drop returns
  // a settled get to the pool.
  void Drop(GetState* g);

  Options options_;
  resilience::ReplicaHealthTracker health_;
  resilience::RetryBudget retry_budget_;
  resilience::DecorrelatedJitterBackoff backoff_;
  uint64_t ebusy_failovers_ = 0;
  uint64_t unbounded_tries_ = 0;
  uint64_t timeouts_fired_ = 0;
  uint64_t degraded_gets_ = 0;
  uint64_t degraded_sheds_seen_ = 0;
  uint64_t deadline_exhausted_ = 0;
  uint64_t budget_regressions_ = 0;
  DurationNs max_sent_deadline_ = 0;
  SlotPool<GetState> gets_;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_MITTOS_CLIENT_H_
