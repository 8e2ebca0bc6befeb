// TraceReplayDriver: open-loop replay of a TraceCursor into a simulator.
//
// The driver walks the cursor in trace order and fires a dispatch callback
// at each event's (rate-scaled) arrival time — open loop: arrivals never
// wait for completions, exactly how production load hits a store. It is the
// one open-loop driver: on-disk and synthetic traces and the tenant mix
// (tenant::TenantArrivalCursor) all reach the harness through it. The
// harness installs a dispatch that issues a client Get through the full
// client -> kv -> OS stack; tests install counting sinks.
//
// Determinism & sharding: in a sharded world every shard runs its own
// driver over its own cursor, and each driver claims the deterministic
// subset `stream % num_shards == shard` — the arrival partition is a pure
// function of the trace, decided in trace order, never of worker count or
// hardware, so scorecards are bit-identical at any MITT_TRIAL_WORKERS x
// MITT_INTRA_WORKERS (same contract as harness::RunTrials and
// sim::ShardedEngine). Warmup accounting uses the *global* record index
// (each driver scans every record while claiming its own), so the
// measured/unmeasured split is also partition-independent.
//
// Hot loop = cursor advance + one ScheduleAt + the dispatch call. The
// closure captures only `this` (inside InlineFunction's SBO) and the cursor
// reuses its block scratch, so the steady state performs zero heap
// allocations (gated by tests/alloc_test.cc).

#ifndef MITTOS_TRACE_REPLAY_H_
#define MITTOS_TRACE_REPLAY_H_

#include <functional>

#include "src/sim/simulator.h"
#include "src/trace/cursor.h"

namespace mitt::trace {

class TraceReplayDriver {
 public:
  struct Options {
    // Arrival compression: event fires at at / rate_scale (>1 = denser).
    double rate_scale = 1.0;
    // Stop after this many *global* records (0 = whole trace). Applies
    // before partitioning so every shard agrees where the trace ends.
    uint64_t max_events = 0;
    // First `warmup_events` global records are dispatched unmeasured.
    uint64_t warmup_events = 0;
    // This driver's partition: claims records with stream % num_shards ==
    // shard. Defaults cover the whole trace.
    int shard = 0;
    int num_shards = 1;
  };

  // `measured` is false for the global warmup prefix. `global_index` is the
  // record's position in the full trace (0-based), identical across shards.
  using DispatchFn =
      std::function<void(const TraceEvent& event, uint64_t global_index, bool measured)>;

  TraceReplayDriver(sim::Simulator* sim, TraceCursor* cursor, const Options& options,
                    DispatchFn dispatch);

  // Schedules the first owned arrival. No-op on an empty (or fully foreign)
  // partition — done() is immediately true.
  void Start();

  // True once every owned arrival has been dispatched. Completions are the
  // dispatcher's business (open loop): drive the sim until done() AND your
  // own completion count catches up.
  bool done() const { return done_; }

  uint64_t dispatched() const { return dispatched_; }
  uint64_t reads_dispatched() const { return reads_; }
  uint64_t writes_dispatched() const { return writes_; }

 private:
  // Advances the cursor to this shard's next record and schedules it;
  // flips done_ when the cursor (or max_events) runs out.
  void PumpNext();
  void Fire();

  TimeNs ScaledArrival(TimeNs at) const {
    return rate_scale_ == 1.0
               ? at
               : static_cast<TimeNs>(static_cast<double>(at) / rate_scale_);
  }

  sim::Simulator* sim_;
  TraceCursor* cursor_;
  Options options_;
  DispatchFn dispatch_;
  double rate_scale_ = 1.0;

  TraceEvent pending_{};
  uint64_t pending_index_ = 0;
  uint64_t scanned_ = 0;  // Global records consumed from the cursor.
  uint64_t dispatched_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  bool started_ = false;
  bool done_ = false;
};

}  // namespace mitt::trace

#endif  // MITTOS_TRACE_REPLAY_H_
