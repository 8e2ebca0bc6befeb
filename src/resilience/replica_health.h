// Per-replica health tracking + circuit breakers for failover ordering.
//
// The paper's client walks the replica set primary-first on every get, which
// under a fail-slow primary means every request pays a wasted round trip to
// the sick node — and, worse, the stale-profile predictor occasionally
// *admits* an IO there, handing the user the full degraded-media latency.
// The tracker keeps, per replica:
//
//   * an EWMA of the EBUSY rate (fast-reject pressure),
//   * an EWMA of successful reply latency (catches fail-slow nodes the
//     predictor still admits),
//   * a consecutive-timeout strike counter (catches pauses / partitions /
//     drop storms the OS cannot see at all),
//
// feeding a classic closed / open / half-open circuit breaker. An open
// breaker pushes the replica to the back of the failover order; after a
// deterministic, seeded open window the breaker half-opens and admits exactly
// one probe request, whose outcome closes the breaker or re-opens it with an
// exponentially escalated window. All timing derives from simulated time and
// the tracker's own seeded RNG, so runs are bit-identical at any
// MITT_TRIAL_WORKERS setting.
//
// State transitions are recorded as `resilience.breaker_*` instant spans
// (node-labeled, request id 0) and counted in `resilience_breaker_open_total`
// so a Chrome trace shows exactly when the client gave up on a replica.

#ifndef MITTOS_RESILIENCE_REPLICA_HEALTH_H_
#define MITTOS_RESILIENCE_REPLICA_HEALTH_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace mitt::resilience {

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

std::string_view BreakerStateName(BreakerState state);

// One breaker state change, in occurrence order. Recorded (when
// ReplicaHealthOptions::record_transitions is on) for the chaos-search
// breaker-legality oracle: the legal machine is closed->open (trip),
// open->half_open (window elapsed), half_open->closed (probe succeeded) and
// half_open->open (probe failed); anything else is a tracker bug.
struct BreakerTransition {
  int replica = 0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
  TimeNs at = 0;

  bool operator==(const BreakerTransition&) const = default;
};

struct ReplicaHealthOptions {
  // EWMA weight of the newest sample.
  double ewma_alpha = 0.25;
  // Minimum observations before a breaker may open (keeps healthy worlds
  // from tripping on startup noise).
  int min_samples = 12;
  // EBUSY-rate EWMA at or above which the breaker opens.
  double open_ebusy_threshold = 0.85;
  // Open when the replica's success-latency EWMA exceeds this multiple of
  // the healthiest replica's (and at least `latency_floor`). Clients raise
  // the floor to their SLO deadline: ordinary contention that still meets
  // the deadline is the predictor's job (wait or reject), not the
  // breaker's — only SLO-breaking latency marks a replica fail-slow.
  double latency_slow_factor = 4.0;
  DurationNs latency_floor = Millis(2);
  // Consecutive timeouts (no reply before the client's attempt timer) that
  // open the breaker regardless of the EWMAs.
  int timeout_strikes_to_open = 2;
  // Open-window schedule: base * 2^(reopenings), capped, +/- jitter.
  DurationNs open_base = Millis(40);
  DurationNs open_max = Millis(1600);
  double open_jitter = 0.25;  // Fraction of the window drawn as +/- jitter.
  // Keep an in-order BreakerTransition log (for the chaos oracles). Off by
  // default: long benches would otherwise grow an unbounded vector.
  bool record_transitions = false;
  size_t transition_log_cap = 65536;  // Further transitions count as dropped.
};

class ReplicaHealthTracker {
 public:
  ReplicaHealthTracker(sim::Simulator* sim, int num_replicas,
                       const ReplicaHealthOptions& options, uint64_t seed);

  // --- Observations (all at the current simulated time) ---
  // A reply arrived `latency` after the request was sent. `ebusy` marks a
  // fast rejection; other statuses count as successes for breaker purposes
  // (the replica is alive and answering).
  void OnReply(int replica, DurationNs latency, bool ebusy);
  // The client's attempt timer fired before any reply (drop storm, pause,
  // partition — the fault_active-era failures EBUSY cannot signal).
  void OnTimeout(int replica);
  // Batch observation for control-loop consumers (src/tenant/'s placement
  // controller): one call folds a whole control window's server-side
  // aggregates — `replies` handled gets of which `ebusy` fast-rejected, with
  // `mean_latency` over the successes — into the same EWMAs one window-sized
  // sample at a time. No-op for an empty window.
  void OnWindow(int replica, uint64_t replies, uint64_t ebusy, DurationNs mean_latency);

  // Effective breaker state at the current time (lazily advances open ->
  // half-open when the open window elapses).
  BreakerState state(int replica);

  // True when a half-open breaker has a probe slot free; AcquireProbe takes
  // it (at most one outstanding probe per replica).
  bool AcquireProbe(int replica);

  // Reorders `replicas` in place for a failover walk: closed first (original
  // order preserved — keeps the primary-first bias among healthy nodes),
  // then half-open (probe candidates), open last. Deterministic stable
  // partition, no RNG, no allocation. Expired open windows turn half-open
  // (and are logged) in walk order.
  void OrderReplicas(std::span<int> replicas);

  // --- Introspection ---
  double latency_ewma(int replica) const { return stats_[Index(replica)].latency_ewma; }
  uint64_t breaker_opens() const { return breaker_opens_; }
  uint64_t probes_sent() const { return probes_sent_; }
  // In-order transition log (empty unless options.record_transitions).
  const std::vector<BreakerTransition>& transitions() const { return transitions_; }
  uint64_t transitions_dropped() const { return transitions_dropped_; }

 private:
  struct ReplicaStats {
    double ebusy_ewma = 0.0;
    double latency_ewma = 0.0;  // Successful replies only; 0 = no sample yet.
    int samples = 0;
    int timeout_strikes = 0;
    int reopenings = 0;  // Consecutive open cycles without a closing probe.
    BreakerState state = BreakerState::kClosed;
    TimeNs open_until = 0;
    bool probe_inflight = false;
  };

  size_t Index(int replica) const { return static_cast<size_t>(replica); }
  void MaybeOpen(int replica);
  void Open(int replica);
  void Close(int replica);
  void RecordTransition(int replica, BreakerState from, BreakerState to);

  sim::Simulator* sim_;
  ReplicaHealthOptions options_;
  Rng rng_;
  std::vector<ReplicaStats> stats_;
  uint64_t breaker_opens_ = 0;
  uint64_t probes_sent_ = 0;
  std::vector<BreakerTransition> transitions_;
  uint64_t transitions_dropped_ = 0;
};

}  // namespace mitt::resilience

#endif  // MITTOS_RESILIENCE_REPLICA_HEALTH_H_
