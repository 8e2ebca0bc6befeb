#include "src/resilience/replica_health.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mitt::resilience {

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

ReplicaHealthTracker::ReplicaHealthTracker(sim::Simulator* sim, int num_replicas,
                                           const ReplicaHealthOptions& options, uint64_t seed)
    : sim_(sim), options_(options), rng_(seed), stats_(static_cast<size_t>(num_replicas)) {}

void ReplicaHealthTracker::OnReply(int replica, DurationNs latency, bool ebusy) {
  ReplicaStats& s = stats_[Index(replica)];
  const double a = options_.ewma_alpha;
  s.ebusy_ewma = (1.0 - a) * s.ebusy_ewma + a * (ebusy ? 1.0 : 0.0);
  if (!ebusy) {
    const double sample = static_cast<double>(latency);
    s.latency_ewma = s.latency_ewma == 0.0 ? sample : (1.0 - a) * s.latency_ewma + a * sample;
  }
  ++s.samples;
  s.timeout_strikes = 0;  // Any reply proves the replica is reachable.

  if (state(replica) == BreakerState::kHalfOpen && s.probe_inflight) {
    // This reply settles the probe: a successful (non-EBUSY) answer closes
    // the breaker; an EBUSY probe re-opens with an escalated window.
    s.probe_inflight = false;
    if (ebusy) {
      ++s.reopenings;
      Open(replica);
    } else {
      Close(replica);
    }
    return;
  }
  MaybeOpen(replica);
}

void ReplicaHealthTracker::OnWindow(int replica, uint64_t replies, uint64_t ebusy,
                                    DurationNs mean_latency) {
  if (replies == 0) {
    return;
  }
  ReplicaStats& s = stats_[Index(replica)];
  const double a = options_.ewma_alpha;
  const double ebusy_frac =
      static_cast<double>(ebusy) / static_cast<double>(replies);
  s.ebusy_ewma = (1.0 - a) * s.ebusy_ewma + a * ebusy_frac;
  if (ebusy < replies && mean_latency > 0) {
    const double sample = static_cast<double>(mean_latency);
    s.latency_ewma = s.latency_ewma == 0.0 ? sample : (1.0 - a) * s.latency_ewma + a * sample;
  }
  // One window = one sample for min_samples purposes: the warmup guard is
  // about EWMA convergence, and the window EWMA converges per window.
  ++s.samples;
  s.timeout_strikes = 0;
  MaybeOpen(replica);
}

void ReplicaHealthTracker::OnTimeout(int replica) {
  ReplicaStats& s = stats_[Index(replica)];
  ++s.samples;
  ++s.timeout_strikes;
  if (state(replica) == BreakerState::kHalfOpen && s.probe_inflight) {
    s.probe_inflight = false;
    ++s.reopenings;
    Open(replica);
    return;
  }
  if (s.state == BreakerState::kClosed &&
      s.timeout_strikes >= options_.timeout_strikes_to_open) {
    Open(replica);
  }
}

BreakerState ReplicaHealthTracker::state(int replica) {
  ReplicaStats& s = stats_[Index(replica)];
  if (s.state == BreakerState::kOpen && sim_->Now() >= s.open_until) {
    s.state = BreakerState::kHalfOpen;
    s.probe_inflight = false;
    RecordTransition(replica, BreakerState::kOpen, BreakerState::kHalfOpen);
  }
  return s.state;
}

bool ReplicaHealthTracker::AcquireProbe(int replica) {
  ReplicaStats& s = stats_[Index(replica)];
  if (state(replica) != BreakerState::kHalfOpen || s.probe_inflight) {
    return false;
  }
  s.probe_inflight = true;
  ++probes_sent_;
  return true;
}

void ReplicaHealthTracker::OrderReplicas(std::span<int> replicas) {
  // Stable partition: closed, then half-open, then open. Keeps the
  // primary-first bias among equally-healthy replicas and uses no RNG, so
  // the walk order is a pure function of breaker states. state() may move
  // an expired breaker to half-open and log it, so every replica is touched
  // once, in walk order, before the sort reads the settled states; the sort
  // is an insertion sort (stable and heap-free, unlike std::stable_sort).
  for (const int replica : replicas) {
    (void)state(replica);
  }
  auto rank = [this](int replica) {
    switch (stats_[Index(replica)].state) {
      case BreakerState::kClosed:
        return 0;
      case BreakerState::kHalfOpen:
        return 1;
      case BreakerState::kOpen:
        return 2;
    }
    return 2;
  };
  for (size_t i = 1; i < replicas.size(); ++i) {
    const int replica = replicas[i];
    size_t j = i;
    for (; j > 0 && rank(replicas[j - 1]) > rank(replica); --j) {
      replicas[j] = replicas[j - 1];
    }
    replicas[j] = replica;
  }
}

void ReplicaHealthTracker::MaybeOpen(int replica) {
  ReplicaStats& s = stats_[Index(replica)];
  if (s.state != BreakerState::kClosed || s.samples < options_.min_samples) {
    return;
  }
  if (s.ebusy_ewma >= options_.open_ebusy_threshold) {
    Open(replica);
    return;
  }
  // Latency comparison against the healthiest replica with data: a replica
  // whose success latency EWMA is `latency_slow_factor`x the cluster best
  // (and above the absolute floor) is fail-slow even if it never rejects.
  if (s.latency_ewma > 0.0) {
    double best = s.latency_ewma;
    for (const ReplicaStats& other : stats_) {
      if (other.latency_ewma > 0.0) {
        best = std::min(best, other.latency_ewma);
      }
    }
    if (s.latency_ewma >= best * options_.latency_slow_factor &&
        s.latency_ewma >= static_cast<double>(options_.latency_floor)) {
      Open(replica);
    }
  }
}

void ReplicaHealthTracker::Open(int replica) {
  ReplicaStats& s = stats_[Index(replica)];
  const BreakerState from = s.state;
  // Escalate the window exponentially with consecutive re-openings, capped,
  // then jitter it so replicas tripped at the same instant do not probe in
  // lockstep. The jitter draw comes from the tracker's own seeded stream —
  // deterministic across runs and worker counts.
  DurationNs window = options_.open_base;
  for (int i = 0; i < s.reopenings && window < options_.open_max; ++i) {
    window *= 2;
  }
  window = std::min(window, options_.open_max);
  const double jitter = rng_.Uniform(-options_.open_jitter, options_.open_jitter);
  window += static_cast<DurationNs>(static_cast<double>(window) * jitter);
  if (window < Micros(1)) {
    window = Micros(1);
  }
  s.state = BreakerState::kOpen;
  s.open_until = sim_->Now() + window;
  s.probe_inflight = false;
  s.timeout_strikes = 0;
  ++breaker_opens_;
  RecordTransition(replica, from, BreakerState::kOpen);
}

void ReplicaHealthTracker::Close(int replica) {
  ReplicaStats& s = stats_[Index(replica)];
  const BreakerState from = s.state;
  s.state = BreakerState::kClosed;
  s.reopenings = 0;
  s.timeout_strikes = 0;
  // Forget the sick-era EWMAs: the replica must re-earn its health record
  // rather than instantly re-tripping on stale samples.
  s.ebusy_ewma = 0.0;
  s.latency_ewma = 0.0;
  s.samples = 0;
  RecordTransition(replica, from, BreakerState::kClosed);
}

void ReplicaHealthTracker::RecordTransition(int replica, BreakerState from, BreakerState to) {
  if (options_.record_transitions) {
    if (transitions_.size() < options_.transition_log_cap) {
      transitions_.push_back({replica, from, to, sim_->Now()});
    } else {
      ++transitions_dropped_;
    }
  }
  if (obs::Tracer* tracer = sim_->tracer()) {
    obs::SpanKind kind = obs::SpanKind::kBreakerOpen;
    if (to == BreakerState::kHalfOpen) {
      kind = obs::SpanKind::kBreakerHalfOpen;
    } else if (to == BreakerState::kClosed) {
      kind = obs::SpanKind::kBreakerClose;
    }
    // request id 0: breaker transitions are per-replica, not per-request.
    tracer->RecordInstant(kind, obs::TraceContext{0, replica}, sim_->Now());
  }
  if (obs::MetricsRegistry* metrics = sim_->metrics()) {
    if (to == BreakerState::kOpen) {
      metrics->counter("resilience_breaker_open_total", replica).Add();
    } else if (to == BreakerState::kClosed) {
      metrics->counter("resilience_breaker_close_total", replica).Add();
    }
  }
}

}  // namespace mitt::resilience
