// Intra-trial parallel discrete-event engine: conservative PDES over shards.
//
// One trial used to be one single-threaded Simulator, so a scenario was
// capped near the paper's ~20-node scale no matter how many cores the host
// has (`harness::RunTrialsParallel` only parallelizes *across* trials). The
// ShardedEngine splits one simulated world into S shards — each shard is a
// full Simulator (same slot-arena event pool, same 4-ary handle heap) owning
// a disjoint set of actors (nodes, their OS/device/scheduler stacks, the
// clients homed on it) — and drives them with conservative time windows:
//
//   lookahead L  = the minimum one-way network hop (cluster::Network's
//                  one_way - jitter): any cross-shard interaction is a
//                  network message, so an event executing at time t cannot
//                  affect another shard before t + L.
//   window       = [*, global_min + L) where global_min is the earliest
//                  pending event across all shards. Every shard may execute
//                  its events strictly below the window end with no
//                  communication, in parallel.
//   barrier      = cross-shard messages buffered during the window are
//                  drained into their destination shards in deterministic
//                  (time, source shard, send sequence) order, global_min is
//                  recomputed, and the next window opens.
//
// Determinism contract (the invariant every subsystem relies on): results
// are bit-identical at any MITT_INTRA_WORKERS value, including 1, and
// composable with MITT_TRIAL_WORKERS. Worker count only decides which thread
// executes a shard's window — never the order of events. The pieces:
//   * within a shard, events fire in (time, per-shard seq) order exactly as
//     in a plain Simulator;
//   * mailbox drains are sorted by (time, src shard, per-pair seq) and
//     inserted at the barrier, so destination-side tie-breaking is a pure
//     function of the simulation, not of thread scheduling;
//   * shard-crossing layers (cluster::Network) keep one RNG stream per
//     source shard, consumed only by that shard's thread;
//   * fault/world mutations that touch cross-shard state run as *global
//     events*: timestamped closures executed while every shard is quiesced
//     at a barrier, before any shard event at an equal-or-later time.
//
// The 1-shard contract: with one shard the engine runs exactly the plain
// Simulator schedule. Run() and RunUntilPredicate() are the shard's own
// loops (the predicate is checked after every event; no windows run),
// ScheduleGlobal is a daemon event on the shard (fired in (time, seq) order
// and counted in executed_events()), and Post schedules directly.
//
// Scale-out machinery (all of it schedule-preserving — the event order, and
// therefore every scorecard, is byte-identical with each feature on or off
// and at any worker count):
//
//   * Quiet-frontier window FUSION. When exactly one shard holds events
//     below the window end (SecondMin >= global_min + L) and no cross-shard
//     message is buffered, the window cannot interact with any other shard:
//     messages posted inside it land at >= t + L >= window_end (the
//     lookahead bound), and every other shard is parked at or beyond the
//     horizon. Such windows run inline on the coordinator with O(1)
//     bookkeeping — no drain scan, no pool handoff, no frontier rescan (only
//     the active shard's leaf updates) — and a post or a second shard
//     arriving at the frontier falls back to a full barrier, which drains
//     the mailbox exactly where the unfused engine would have. Window
//     boundaries, pred-check instants, and message delivery barriers are
//     identical to the unfused schedule; only the per-window cost changes.
//     Disk-bound low-density worlds (~11 events/shard-window) spend most
//     windows here. fused_windows() counts them; windows_run() counts all.
//   * ADAPTIVE shard->worker assignment. Per-shard executed-event deltas are
//     accumulated per window; every rebalance_period windows the coordinator
//     repacks the shard->worker map with a deterministic LPT bin-packing
//     (heaviest shard first onto the least-loaded worker, ties by lowest
//     id). Assignment only picks *which thread* runs a shard, never event
//     order, so determinism is free; the load inputs are deterministic event
//     counts, so the maps are identical at any actual worker count.
//   * SENSE-REVERSING ATOMIC BARRIER. The per-window pool handoff is a
//     monotone epoch counter (the generalized sense — no flag ever needs a
//     racy reset) plus a done counter, spin-then-park on C++20 atomic
//     wait/notify. Memory-ordering contract in sharded_engine.cc.
//   * O(active) BOOKKEEPING. Mailbox drains walk per-source dirty-row lists
//     (never the S^2 row matrix), k-way-merge rows that stayed time-sorted
//     and sort only rows a jittered hop reordered; the global frontier lives
//     in a FrontierIndex tournament tree (O(log S) per moved shard); the
//     non-daemon pending total is maintained incrementally. Per-window cost
//     scales with the shards and messages that actually moved.
//
// Hot-path budget: mailbox slots hold InlineFunction closures (48-byte SBO)
// in vectors that retain capacity across windows, and every scratch
// structure (drain refs, dirty lists, ready list, LPT bins, frontiers) is
// sized at construction, so the steady-state window loop — barrier, fusion,
// and rebalance paths included — performs zero heap allocations (gated by
// tests/alloc_test.cc). The shard count is a pure function of the scenario
// (never of worker count or hardware), which is what makes the worker-count
// invariance total.

#ifndef MITTOS_SIM_SHARDED_ENGINE_H_
#define MITTOS_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/sim/frontier_index.h"
#include "src/sim/simulator.h"

namespace mitt::sim {

// Worker count used when ShardedEngine::Options.workers <= 0:
// $MITT_INTRA_WORKERS if set, otherwise 1 (conservative default so
// trial-level parallelism is never oversubscribed implicitly).
int DefaultIntraWorkers();

class ShardedEngine {
 public:
  struct Options {
    int num_shards = 1;
    // Conservative lookahead; must be > 0 when num_shards > 1. Derive it
    // from the minimum cross-shard interaction latency (for cluster worlds:
    // NetworkParams.one_way - NetworkParams.jitter).
    DurationNs lookahead = 0;
    // Threads executing shard windows. <= 0 resolves via
    // DefaultIntraWorkers(). Results are bit-identical at any value.
    int workers = 0;
    // Windows between adaptive LPT repacks of the shard->worker map.
    // 0 = static map (shard s on worker s % workers, the pre-overhaul
    // behavior); < 0 = 64. Never affects results, only which thread runs
    // which shard.
    int rebalance_period = -1;
    // Quiet-frontier window fusion. 0 = off; 1 or < 0 = on.
    // Schedule-preserving: results and window counts are identical either
    // way, only per-window cost changes.
    int fusion = -1;
  };

  explicit ShardedEngine(const Options& options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  ~ShardedEngine();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Simulator* shard(int s) { return shards_[static_cast<size_t>(s)].get(); }
  DurationNs lookahead() const { return options_.lookahead; }
  int workers() const { return workers_; }

  // The shard executing on the calling thread during a window; outside any
  // window (setup, barriers, global events) this is shard 0. Used by
  // cluster::Network to pick the caller's RNG lane / mailbox row without
  // threading a shard id through every layer.
  int CurrentShardId() const;

  // Cross-shard message: run `fn` on `dst_shard` at absolute time `when`.
  // Must be called from the engine's own execution contexts (a shard window
  // on a worker thread, a global event, or setup before Run). `when` is
  // clamped to the open window's end — the conservative bound messages are
  // guaranteed to respect when the lookahead is derived correctly.
  void Post(int dst_shard, TimeNs when, Callback fn);

  // Global event: `fn` runs at absolute time `when` while every shard is
  // quiesced (all shard clocks advanced to `when`, no window executing), and
  // before any shard event with an equal or later timestamp; with one shard
  // it is a daemon event. Daemon-like: pending global events never keep
  // Run() alive. Use for mutations of cross-shard state (network link
  // faults, node pause/crash injection).
  void ScheduleGlobal(TimeNs when, Callback fn);

  // Runs windows until no shard holds a non-daemon event and no message is
  // in flight (the multi-shard analogue of Simulator::Run()).
  void Run();

  // Runs windows until `pred()` returns true — checked at every barrier,
  // while quiesced (after every event with one shard) — or the engine
  // drains. Returns true if the predicate was satisfied. Predicate
  // evaluation is deterministic: barriers fall at the same simulated times
  // for any worker count (and with fusion on or off).
  bool RunUntilPredicate(const std::function<bool()>& pred);

  // Largest shard clock (the simulated time the world has reached).
  TimeNs Now() const;

  uint64_t executed_events() const;       // Summed over shards.
  uint64_t cross_shard_messages() const { return cross_messages_; }
  uint64_t windows_run() const { return windows_; }
  // Windows executed through the quiet-frontier fast path: no mailbox
  // drain, no pool handoff, O(1) bookkeeping. windows_run() includes them;
  // windows_run() - fused_windows() is the number of full barriers paid.
  uint64_t fused_windows() const { return fused_windows_; }

  // Critical-path event count for a hypothetical `workers`-thread run: the
  // sum over windows of the busiest worker's event count under the engine's
  // shard->worker map policy (adaptive LPT maps maintained per hypothetical
  // count when rebalancing is on, the static s % workers map when off).
  // executed_events() / critical_path_events(w) is the wall-clock speedup a
  // w-core host could reach, computed deterministically from event counts —
  // it is how the scaling bench reports parallelism on hosts with fewer
  // cores than workers. Tracked for workers in {1, 2, 4, 8, 16, 32};
  // returns 0 for other values. critical_path_events_static(w) is the same
  // sum under the static map regardless of policy — the before/after pair
  // the scaling bench reports.
  uint64_t critical_path_events(int workers) const;
  uint64_t critical_path_events_static(int workers) const;

  // Whole-run executed-event imbalance for a hypothetical `workers`-thread
  // run: max over workers of total events executed, divided by the mean —
  // 1.0 is a perfect split. Same tracked counts as critical_path_events();
  // returns 0 for untracked counts or before any window ran. The adaptive
  // flavor reflects the engine's map policy; the static flavor always bins
  // by s % workers.
  double imbalance_ratio(int workers) const;
  double imbalance_ratio_static(int workers) const;

  // Approximate percentile (p in [0, 100]) of executed events per window,
  // from a fixed-size log-bucket histogram (8 sub-buckets per octave,
  // <= ~12% relative error) — allocation-free by construction. 0 before any
  // window ran.
  double events_per_window_percentile(double p) const;

 private:
  struct Mailbox {
    // One row per (src, dst) pair; written only by src's thread during a
    // window, drained only at barriers. Capacity is retained across
    // windows. max_when/sorted track whether appends stayed time-ordered:
    // sorted rows k-way-merge at the drain, unsorted ones (a jittered hop
    // overtaking an earlier send) are index-sorted first.
    struct Msg {
      TimeNs when;
      Callback fn;
    };
    std::vector<Msg> msgs;
    TimeNs max_when = 0;
    bool sorted = true;
  };

  struct GlobalEvent {
    TimeNs when;
    uint64_t seq;
    Callback fn;
  };

  // Sort key for deterministic mailbox drains.
  struct MsgRef {
    TimeNs when;
    int src;
    uint32_t index;
  };

  // Head of one mailbox row inside the k-way drain merge.
  struct MergeHead {
    TimeNs when;
    int src;
    uint32_t index;
    uint32_t size;
  };

  // Log-bucket histogram of per-window executed-event counts (see
  // events_per_window_percentile). 8 linear sub-buckets per power of two.
  struct WindowHistogram {
    static constexpr int kSubBits = 3;
    static constexpr int kBuckets = 64 << kSubBits;
    uint64_t counts[kBuckets] = {};
    uint64_t total = 0;
    void Record(uint64_t value);
    double Percentile(double p) const;
  };

  Mailbox& mailbox(int src, int dst) {
    return mail_[static_cast<size_t>(src) * shards_.size() + static_cast<size_t>(dst)];
  }

  bool RunLoop(const std::function<bool()>& pred);
  // Advances every shard clock to `t` and fires due global events. Returns
  // the time of the next pending global event (or kNoPendingEvent).
  TimeNs RunGlobalsUpTo(TimeNs t);
  void DrainMailboxes();
  void ExecuteWindow(TimeNs window_end);  // Parallel phase + barrier.
  void WorkerLoop(int worker_index);
  void RunShardSubset(TimeNs window_end, int worker);
  // Re-reads shard s's frontier + non-daemon count into the caches after it
  // executed, received messages, or a global touched the world.
  void RefreshShard(int s);
  void RefreshAllShards();
  // Per-window load bookkeeping for the shards in ready_shards_ (quiesced).
  void AccountWindow();
  // One-shard window accounting for the fusion fast path: O(tracked counts).
  void AccountFusedWindow(int s);
  // Deterministic LPT repack of every maintained shard->worker map from the
  // loads accumulated since the last repack. Runs quiesced at a barrier.
  void Rebalance();
  static void LptPack(const std::vector<int>& order, const std::vector<uint64_t>& loads,
                      int workers, std::vector<uint64_t>& bin_scratch,
                      std::vector<uint8_t>& out);

  static constexpr TimeNs kNoPendingEvent = -1;

  Options options_;
  int workers_ = 1;
  int rebalance_period_ = 0;
  bool fusion_ = true;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<Mailbox> mail_;  // num_shards^2 rows, indexed [src * S + dst].
  std::vector<GlobalEvent> globals_;  // Min-heap on (when, seq).
  uint64_t next_global_seq_ = 1;
  TimeNs window_end_ = 0;  // Conservative horizon while a window is open.
  uint64_t cross_messages_ = 0;
  uint64_t windows_ = 0;
  uint64_t fused_windows_ = 0;

  // --- O(active) barrier bookkeeping -------------------------------------
  // Per-source dirty row lists: dirty_rows_[src] holds the dst ids of rows
  // src made non-empty this window. Written only by src's thread (its own
  // lane), gathered by the coordinator at the barrier. dirty_count_ is the
  // coordinator's O(1) "any traffic?" check; relaxed increments are ordered
  // by the barrier's acquire/release edges before the coordinator reads it.
  std::vector<std::vector<int>> dirty_rows_;
  std::atomic<uint32_t> dirty_count_{0};
  std::vector<MsgRef> drain_scratch_;       // Unsorted-row fallback.
  std::vector<MergeHead> merge_heap_;       // K-way merge of sorted rows.
  std::vector<std::pair<int, int>> drain_rows_;  // (dst, src) gathered rows.
  // Cached per-shard state, refreshed only for shards that moved:
  FrontierIndex frontier_;                  // Earliest live event per shard.
  std::vector<size_t> nd_cache_;            // Per-shard non-daemon pending.
  size_t nd_total_ = 0;

  // --- Load accounting & adaptive maps -----------------------------------
  // kCpWorkerCounts lists the hypothetical worker counts tracked; every
  // scratch vector below is sized at construction (alloc-free windows).
  static constexpr int kCpWorkerCounts[] = {1, 2, 4, 8, 16, 32};
  static constexpr size_t kNumCpWorkerCounts = sizeof(kCpWorkerCounts) / sizeof(int);
  uint64_t critical_path_[kNumCpWorkerCounts] = {};
  uint64_t critical_path_static_[kNumCpWorkerCounts] = {};
  std::vector<uint64_t> cp_prev_executed_;  // Per-shard last-seen executed.
  std::vector<uint64_t> cp_window_delta_;   // Per-shard events this window.
  std::vector<uint64_t> cp_bin_scratch_;    // Per-worker bins, reused.
  // maps_[k][s] = worker running shard s in a hypothetical
  // kCpWorkerCounts[k]-thread run; assignment_[s] = worker for the actual
  // pool. Static (s % w) until the first Rebalance(), then LPT-packed.
  std::vector<uint8_t> maps_[kNumCpWorkerCounts];
  std::vector<uint8_t> assignment_;
  std::vector<uint64_t> worker_events_[kNumCpWorkerCounts];   // Adaptive bins.
  std::vector<uint64_t> worker_events_static_[kNumCpWorkerCounts];
  std::vector<uint64_t> rebalance_load_;    // Per-shard events since repack.
  std::vector<int> lpt_order_;              // Shard ids, sorted by load.
  std::vector<uint64_t> lpt_bins_;          // Per-worker packed load.
  uint64_t windows_since_rebalance_ = 0;
  WindowHistogram window_hist_;

  // --- Worker pool: sense-reversing atomic epoch barrier -----------------
  // (created lazily on the first multi-worker window; full memory-ordering
  // contract at the implementation). epoch_ is the generalized sense: it
  // only ever increments, so no flag needs a reset that could race with a
  // late waiter. Workers spin briefly then park on C++20 atomic wait.
  std::vector<std::thread> pool_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> workers_done_{0};
  std::atomic<bool> shutdown_{false};
  TimeNs pool_window_end_ = 0;     // Published by the epoch_ release store.
  std::vector<int> ready_shards_;  // Refilled between epochs (quiesced).
};

}  // namespace mitt::sim

#endif  // MITTOS_SIM_SHARDED_ENGINE_H_
