#include "src/sim/sharded_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

namespace mitt::sim {

namespace {

// Which (engine, shard) the calling thread is executing for. Each trial owns
// its own engine, so a thread pool from harness::RunTrialsParallel keeps the
// engines fully independent: the pointer match below makes CurrentShardId()
// correct even when several engines are alive at once.
struct ShardContext {
  const ShardedEngine* engine = nullptr;
  int shard = 0;
};
thread_local ShardContext tls_shard_context;

// Spin iterations before parking on the futex (atomic wait). Windows are
// microseconds apart when the engine is busy, so a short spin usually
// catches the next epoch without a syscall; parking keeps idle workers off
// the cores during long fused stretches and at end of run.
constexpr int kBarrierSpins = 1024;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

int DefaultIntraWorkers() {
  if (const char* env = std::getenv("MITT_INTRA_WORKERS")) {
    const int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  return 1;
}

ShardedEngine::ShardedEngine(const Options& options)
    : options_(options),
      frontier_(options.num_shards < 1 ? 1 : options.num_shards) {
  const int num_shards = options_.num_shards < 1 ? 1 : options_.num_shards;
  assert(num_shards == 1 || options_.lookahead > 0);
  workers_ = options_.workers > 0 ? options_.workers : DefaultIntraWorkers();
  if (workers_ > num_shards) {
    workers_ = num_shards;
  }
  rebalance_period_ = options_.rebalance_period > 0 ? options_.rebalance_period : 64;
  fusion_ = options_.fusion != 0;

  const auto S = static_cast<size_t>(num_shards);
  shards_.reserve(S);
  for (int s = 0; s < num_shards; ++s) {
    auto sim = std::make_unique<Simulator>();
    sim->set_shard_id(s);
    shards_.push_back(std::move(sim));
  }
  mail_.resize(S * S);
  dirty_rows_.resize(S);
  for (auto& lane : dirty_rows_) {
    lane.reserve(S);  // A row enters its src's lane at most once per window.
  }
  drain_rows_.reserve(4 * S);
  merge_heap_.reserve(S);
  nd_cache_.resize(S, 0);

  cp_prev_executed_.resize(S, 0);
  cp_window_delta_.resize(S, 0);
  rebalance_load_.resize(S, 0);
  lpt_order_.resize(S);
  const size_t max_bins = std::max<size_t>(S, 32);
  cp_bin_scratch_.resize(max_bins, 0);
  lpt_bins_.resize(max_bins, 0);
  assignment_.resize(S);
  for (int s = 0; s < num_shards; ++s) {
    assignment_[static_cast<size_t>(s)] = static_cast<uint8_t>(s % workers_);
  }
  for (size_t k = 0; k < kNumCpWorkerCounts; ++k) {
    const int w = std::min(kCpWorkerCounts[k], num_shards);
    maps_[k].resize(S);
    for (int s = 0; s < num_shards; ++s) {
      maps_[k][static_cast<size_t>(s)] = static_cast<uint8_t>(s % w);
    }
    worker_events_[k].resize(static_cast<size_t>(w), 0);
  }
  ready_shards_.reserve(S);
}

ShardedEngine::~ShardedEngine() {
  shutdown_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : pool_) {
    t.join();
  }
}

int ShardedEngine::CurrentShardId() const {
  const ShardContext& ctx = tls_shard_context;
  return ctx.engine == this ? ctx.shard : 0;
}

void ShardedEngine::Post(int dst_shard, TimeNs when, Callback fn) {
  if (shards_.size() == 1) {
    shards_[0]->ScheduleAt(when, std::move(fn));  // One shard has no mailboxes.
    return;
  }
  const int src = CurrentShardId();
  // Conservative bound: a correctly derived lookahead makes this clamp a
  // no-op; it exists so an under-estimated hop (e.g. a fault multiplier
  // below 1.0) degrades to a deterministic delay instead of a causality
  // violation.
  if (when < window_end_) {
    when = window_end_;
  }
  Mailbox& row = mailbox(src, dst_shard);
  if (row.msgs.empty()) {
    // First message on this row this window: enter src's dirty lane (only
    // src's thread touches it) and bump the coordinator's traffic count.
    // The relaxed increment is ordered before the coordinator's read by the
    // barrier check-in edges (see the memory-ordering contract below).
    dirty_rows_[static_cast<size_t>(src)].push_back(dst_shard);
    dirty_count_.fetch_add(1, std::memory_order_relaxed);
    row.sorted = true;
    row.max_when = when;
  } else if (when < row.max_when) {
    row.sorted = false;  // A jittered hop overtook an earlier send.
  } else {
    row.max_when = when;
  }
  row.msgs.push_back({when, std::move(fn)});
}

void ShardedEngine::ScheduleGlobal(TimeNs when, Callback fn) {
  if (shards_.size() == 1) {  // Quiesced between any two of its events.
    Simulator* sim = shards_[0].get();
    sim->ScheduleDaemon(when - sim->Now(), std::move(fn));
    return;
  }
  const TimeNs now = Now();
  if (when < now) {
    when = now;
  }
  globals_.push_back({when, next_global_seq_++, std::move(fn)});
  std::push_heap(globals_.begin(), globals_.end(), [](const GlobalEvent& a, const GlobalEvent& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;  // Min-heap.
  });
}

TimeNs ShardedEngine::Now() const {
  TimeNs now = 0;
  for (const auto& shard : shards_) {
    now = std::max(now, shard->Now());
  }
  return now;
}

uint64_t ShardedEngine::executed_events() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->executed_events();
  }
  return total;
}

uint64_t ShardedEngine::critical_path_events(int workers) const {
  for (size_t k = 0; k < kNumCpWorkerCounts; ++k) {
    if (kCpWorkerCounts[k] == workers) {
      return critical_path_[k];
    }
  }
  return 0;
}

namespace {
double ImbalanceOf(const std::vector<uint64_t>& bins) {
  uint64_t total = 0;
  uint64_t max = 0;
  for (const uint64_t b : bins) {
    total += b;
    max = std::max(max, b);
  }
  if (total == 0) {
    return 0;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(bins.size());
  return static_cast<double>(max) / mean;
}
}  // namespace

double ShardedEngine::imbalance_ratio(int workers) const {
  for (size_t k = 0; k < kNumCpWorkerCounts; ++k) {
    if (kCpWorkerCounts[k] == workers) {
      return ImbalanceOf(worker_events_[k]);
    }
  }
  return 0;
}

// --- Per-window event-count histogram --------------------------------------

void ShardedEngine::WindowHistogram::Record(uint64_t value) {
  ++total;
  int b;
  if (value < (uint64_t{1} << kSubBits)) {
    b = static_cast<int>(value);  // 0..7 exact.
  } else {
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBits;
    const auto sub =
        static_cast<int>((value >> shift) & ((uint64_t{1} << kSubBits) - 1));
    b = ((msb - kSubBits + 1) << kSubBits) + sub;
  }
  if (b >= kBuckets) {
    b = kBuckets - 1;
  }
  ++counts[b];
}

double ShardedEngine::WindowHistogram::Percentile(double p) const {
  if (total == 0) {
    return 0;
  }
  const auto target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(total - 1)) + 1;
  uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cum += counts[b];
    if (cum >= target) {
      if (b < (1 << kSubBits)) {
        return static_cast<double>(b);
      }
      const int msb = (b >> kSubBits) + kSubBits - 1;
      const int shift = msb - kSubBits;
      const uint64_t lo =
          ((uint64_t{1} << kSubBits) + static_cast<uint64_t>(b & ((1 << kSubBits) - 1)))
          << shift;
      const uint64_t width = uint64_t{1} << shift;
      return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
    }
  }
  return 0;
}

double ShardedEngine::events_per_window_percentile(double p) const {
  return window_hist_.Percentile(p);
}

// --- Cached frontier / pending bookkeeping ---------------------------------

void ShardedEngine::RefreshShard(int s) {
  Simulator* sim = shards_[static_cast<size_t>(s)].get();
  // NextEventTime first: it lazily pops tombstones, which adjusts the
  // non-daemon count read on the next line.
  const TimeNs t = sim->NextEventTime();
  frontier_.Set(s, t < 0 ? FrontierIndex::kEmpty : t);
  const size_t nd = sim->non_daemon_pending();
  nd_total_ = nd_total_ - nd_cache_[static_cast<size_t>(s)] + nd;
  nd_cache_[static_cast<size_t>(s)] = nd;
}

void ShardedEngine::RefreshAllShards() {
  for (int s = 0; s < num_shards(); ++s) {
    RefreshShard(s);
  }
}

// --- Load accounting & adaptive maps ---------------------------------------

void ShardedEngine::AccountWindow() {
  uint64_t window_events = 0;
  for (const int s : ready_shards_) {
    const auto idx = static_cast<size_t>(s);
    const uint64_t executed = shards_[idx]->executed_events();
    const uint64_t delta = executed - cp_prev_executed_[idx];
    cp_prev_executed_[idx] = executed;
    cp_window_delta_[idx] = delta;
    rebalance_load_[idx] += delta;
    window_events += delta;
  }
  window_hist_.Record(window_events);
  const int num = num_shards();
  for (size_t k = 0; k < kNumCpWorkerCounts; ++k) {
    const int w = std::min(kCpWorkerCounts[k], num);
    std::fill(cp_bin_scratch_.begin(), cp_bin_scratch_.begin() + w, 0);
    for (const int s : ready_shards_) {
      cp_bin_scratch_[maps_[k][static_cast<size_t>(s)]] += cp_window_delta_[static_cast<size_t>(s)];
    }
    uint64_t max_load = 0;
    for (int worker = 0; worker < w; ++worker) {
      worker_events_[k][static_cast<size_t>(worker)] += cp_bin_scratch_[static_cast<size_t>(worker)];
      max_load = std::max(max_load, cp_bin_scratch_[static_cast<size_t>(worker)]);
    }
    critical_path_[k] += max_load;
  }
  ++windows_since_rebalance_;
}

void ShardedEngine::AccountFusedWindow(int s) {
  const auto idx = static_cast<size_t>(s);
  const uint64_t executed = shards_[idx]->executed_events();
  const uint64_t delta = executed - cp_prev_executed_[idx];
  cp_prev_executed_[idx] = executed;
  rebalance_load_[idx] += delta;
  window_hist_.Record(delta);
  // Single active shard: the busiest bin is its bin under every map.
  for (size_t k = 0; k < kNumCpWorkerCounts; ++k) {
    critical_path_[k] += delta;
    worker_events_[k][maps_[k][idx]] += delta;
  }
  ++windows_since_rebalance_;
}

void ShardedEngine::LptPack(const std::vector<int>& order, const std::vector<uint64_t>& loads,
                            int workers, std::vector<uint64_t>& bin_scratch,
                            std::vector<uint8_t>& out) {
  std::fill(bin_scratch.begin(), bin_scratch.begin() + workers, 0);
  for (const int s : order) {
    int best = 0;
    for (int w = 1; w < workers; ++w) {
      if (bin_scratch[static_cast<size_t>(w)] < bin_scratch[static_cast<size_t>(best)]) {
        best = w;  // Strict <: ties stay on the lowest worker id.
      }
    }
    out[static_cast<size_t>(s)] = static_cast<uint8_t>(best);
    bin_scratch[static_cast<size_t>(best)] += loads[static_cast<size_t>(s)];
  }
}

void ShardedEngine::Rebalance() {
  // Deterministic LPT: heaviest shard first onto the least-loaded worker,
  // every tie broken by id. Inputs are executed-event counts (deterministic)
  // and the repack happens at a quiesced barrier, so the maps are identical
  // at any actual worker count — and assignment never affects event order,
  // only which thread runs a shard.
  windows_since_rebalance_ = 0;
  const int num = num_shards();
  for (int s = 0; s < num; ++s) {
    lpt_order_[static_cast<size_t>(s)] = s;
  }
  std::sort(lpt_order_.begin(), lpt_order_.end(), [&](int a, int b) {
    const uint64_t la = rebalance_load_[static_cast<size_t>(a)];
    const uint64_t lb = rebalance_load_[static_cast<size_t>(b)];
    return la != lb ? la > lb : a < b;
  });
  for (size_t k = 0; k < kNumCpWorkerCounts; ++k) {
    const int w = std::min(kCpWorkerCounts[k], num);
    LptPack(lpt_order_, rebalance_load_, w, lpt_bins_, maps_[k]);
  }
  LptPack(lpt_order_, rebalance_load_, workers_, lpt_bins_, assignment_);
  std::fill(rebalance_load_.begin(), rebalance_load_.end(), 0);
}

// --- Globals ----------------------------------------------------------------

TimeNs ShardedEngine::RunGlobalsUpTo(TimeNs t) {
  const auto later = [](const GlobalEvent& a, const GlobalEvent& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  };
  while (!globals_.empty() && globals_.front().when <= t) {
    std::pop_heap(globals_.begin(), globals_.end(), later);
    GlobalEvent g = std::move(globals_.back());
    globals_.pop_back();
    // Quiesced execution at exactly g.when: every shard clock reads g.when,
    // so a global mutation (fault apply, pause, crash) timestamps its spans
    // and its scheduled follow-ups consistently on every shard it touches.
    for (auto& shard : shards_) {
      shard->AdvanceTo(g.when);
    }
    g.fn();
  }
  return globals_.empty() ? kNoPendingEvent : globals_.front().when;
}

// --- Mailbox drain: O(dirty rows + messages), not O(S^2) --------------------

void ShardedEngine::DrainMailboxes() {
  // Gather the dirty rows (per-src lanes, written only by their own shard's
  // thread during the window; the barrier's check-in edges make them visible
  // here) into (dst, src) pairs and group by destination.
  drain_rows_.clear();
  const int num = num_shards();
  for (int src = 0; src < num; ++src) {
    auto& lane = dirty_rows_[static_cast<size_t>(src)];
    for (const int dst : lane) {
      drain_rows_.push_back({dst, src});
    }
    lane.clear();
  }
  dirty_count_.store(0, std::memory_order_relaxed);
  std::sort(drain_rows_.begin(), drain_rows_.end());  // (dst, then src).

  size_t i = 0;
  while (i < drain_rows_.size()) {
    const int dst = drain_rows_[i].first;
    size_t end = i;
    bool all_sorted = true;
    while (end < drain_rows_.size() && drain_rows_[end].first == dst) {
      all_sorted = all_sorted && mailbox(drain_rows_[end].second, dst).sorted;
      ++end;
    }
    Simulator* dst_sim = shards_[static_cast<size_t>(dst)].get();

    // The deterministic tie-break: (time, source shard, send sequence).
    // Insertion order assigns destination-side seq numbers, so two messages
    // tied with a destination-local event fire after it (they were scheduled
    // later) and against each other in this order — independent of which
    // worker ran which shard.
    if (all_sorted) {
      // Every row stayed time-ordered (the common case: hops from one shard
      // mostly arrive in send order): k-way merge on (when, src) — keys are
      // unique per head since each src feeds one row. O(M log k).
      const auto head_after = [](const MergeHead& a, const MergeHead& b) {
        return a.when != b.when ? a.when > b.when : a.src > b.src;
      };
      merge_heap_.clear();
      for (size_t r = i; r < end; ++r) {
        const int src = drain_rows_[r].second;
        const auto& row = mailbox(src, dst);
        merge_heap_.push_back(
            {row.msgs[0].when, src, 0, static_cast<uint32_t>(row.msgs.size())});
        std::push_heap(merge_heap_.begin(), merge_heap_.end(), head_after);
      }
      while (!merge_heap_.empty()) {
        std::pop_heap(merge_heap_.begin(), merge_heap_.end(), head_after);
        MergeHead& h = merge_heap_.back();
        auto& row = mailbox(h.src, dst);
        dst_sim->ScheduleAt(h.when, std::move(row.msgs[h.index].fn));
        ++cross_messages_;
        if (++h.index < h.size) {
          h.when = row.msgs[h.index].when;
          std::push_heap(merge_heap_.begin(), merge_heap_.end(), head_after);
        } else {
          merge_heap_.pop_back();
        }
      }
    } else {
      // A jittered hop overtook an earlier send somewhere: fall back to the
      // flat (when, src, index) sort over this destination's dirty rows.
      drain_scratch_.clear();
      for (size_t r = i; r < end; ++r) {
        const int src = drain_rows_[r].second;
        const auto& row = mailbox(src, dst).msgs;
        for (uint32_t m = 0; m < row.size(); ++m) {
          drain_scratch_.push_back({row[m].when, src, m});
        }
      }
      std::sort(drain_scratch_.begin(), drain_scratch_.end(),
                [](const MsgRef& a, const MsgRef& b) {
                  if (a.when != b.when) {
                    return a.when < b.when;
                  }
                  if (a.src != b.src) {
                    return a.src < b.src;
                  }
                  return a.index < b.index;
                });
      for (const MsgRef& ref : drain_scratch_) {
        auto& row = mailbox(ref.src, dst).msgs;
        dst_sim->ScheduleAt(ref.when, std::move(row[ref.index].fn));
      }
      cross_messages_ += drain_scratch_.size();
    }

    for (size_t r = i; r < end; ++r) {
      Mailbox& row = mailbox(drain_rows_[r].second, dst);
      row.msgs.clear();  // Capacity retained (zero-alloc path).
      row.sorted = true;
      row.max_when = 0;
    }
    RefreshShard(dst);  // New events landed: frontier + non-daemon count moved.
    i = end;
  }
}

// --- Worker pool: sense-reversing atomic epoch barrier ----------------------
//
// Memory-ordering contract (the happens-before edges every mailbox row and
// shard heap relies on; TSan CI runs the suite at MITT_INTRA_WORKERS=4):
//
//  publish:  coordinator writes (drained shard heaps, ready_shards_,
//            assignment_, pool_window_end_, workers_done_ = 0) …
//            → epoch_.fetch_add(release)
//            → worker epoch_.load(acquire) sees the bump
//            ⇒ all coordinator writes visible to every worker.
//  check-in: worker writes (its shards' heaps/clocks, its mailbox rows, its
//            dirty lane, its relaxed dirty_count_ bumps) …
//            → workers_done_.fetch_add(release)
//            → coordinator workers_done_.load(acquire) reads workers_
//            ⇒ all worker writes visible to the coordinator's drain.
//  worker→worker (a shard or a mailbox row migrating between workers under
//            an adaptive repack): transitively through the two edges above —
//            A's check-in happens-before the barrier's drain, which
//            happens-before the next epoch publish B acquires.
//
// epoch_ is the generalized sense of a sense-reversing barrier: it only
// increments, so no done-flag ever needs a reset that could race with a
// late waiter, and workers_done_ is reset by the coordinator strictly
// between epochs (after every check-in of the previous one was observed).
// Both sides spin kBarrierSpins before parking on C++20 atomic wait/notify
// (a futex on Linux), so back-to-back windows stay syscall-free while idle
// stretches — long fused batches, end of run — leave the cores free.

void ShardedEngine::RunShardSubset(TimeNs window_end, int worker) {
  for (const int s : ready_shards_) {
    if (assignment_[static_cast<size_t>(s)] != worker) {
      continue;
    }
    tls_shard_context = {this, s};
    shards_[static_cast<size_t>(s)]->RunWindow(window_end);
  }
  tls_shard_context = {this, 0};
  // Every worker checks in, including ones whose subset was empty this
  // window — the barrier must know no thread is still *reading*
  // ready_shards_ before the coordinator refills it for the next epoch.
  const uint32_t done = workers_done_.fetch_add(1, std::memory_order_release) + 1;
  if (done == static_cast<uint32_t>(workers_)) {
    workers_done_.notify_all();
  }
}

void ShardedEngine::WorkerLoop(int worker_index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    uint64_t e = epoch_.load(std::memory_order_acquire);
    int spins = 0;
    while (e == seen_epoch) {
      if (++spins < kBarrierSpins) {
        CpuRelax();
      } else {
        epoch_.wait(e, std::memory_order_acquire);
        spins = 0;
      }
      e = epoch_.load(std::memory_order_acquire);
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    seen_epoch = e;
    RunShardSubset(pool_window_end_, worker_index);
  }
}

void ShardedEngine::ExecuteWindow(TimeNs window_end) {
  window_end_ = window_end;
  if (workers_ <= 1 || ready_shards_.size() <= 1) {
    // Single-worker (or single-ready-shard) windows run inline in shard
    // order — the exact schedule a multi-worker run is measured against.
    for (const int s : ready_shards_) {
      tls_shard_context = {this, s};
      shards_[static_cast<size_t>(s)]->RunWindow(window_end);
    }
    tls_shard_context = {this, 0};
    return;
  }
  if (pool_.empty()) {
    pool_.reserve(static_cast<size_t>(workers_ - 1));
    for (int w = 1; w < workers_; ++w) {
      pool_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }
  pool_window_end_ = window_end;
  workers_done_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  RunShardSubset(window_end, /*worker=*/0);  // The coordinator is worker 0.
  uint32_t done = workers_done_.load(std::memory_order_acquire);
  int spins = 0;
  while (done != static_cast<uint32_t>(workers_)) {
    if (++spins < kBarrierSpins) {
      CpuRelax();
    } else {
      workers_done_.wait(done, std::memory_order_acquire);
      spins = 0;
    }
    done = workers_done_.load(std::memory_order_acquire);
  }
}

// --- The window loop --------------------------------------------------------

void ShardedEngine::Run() {
  if (shards_.size() == 1) {
    shards_[0]->Run();
    return;
  }
  RunLoop(nullptr);
}

bool ShardedEngine::RunUntilPredicate(const std::function<bool()>& pred) {
  assert(pred != nullptr);
  if (shards_.size() == 1) {
    return shards_[0]->RunUntilPredicate(pred);
  }
  return RunLoop(pred);
}

bool ShardedEngine::RunLoop(const std::function<bool()>& pred) {
  // Events may have been scheduled since the last call (setup, a previous
  // RunUntilPredicate round): resync every cached frontier once; inside the
  // loop only shards that moved are re-read.
  RefreshAllShards();
  for (;;) {
    if (dirty_count_.load(std::memory_order_relaxed) != 0) {
      DrainMailboxes();
    }
    if (pred != nullptr && pred()) {
      return true;
    }
    if (nd_total_ == 0) {
      return false;  // Drained (pending global events are daemon-like).
    }
    const TimeNs global_min = frontier_.Min();
    if (global_min == FrontierIndex::kEmpty) {
      return false;  // Only tombstones/daemons left.
    }
    if (!globals_.empty() && globals_.front().when <= global_min) {
      // Globals due at the frontier run first, quiesced; they may schedule
      // shard events or further globals anywhere, so resync everything.
      RunGlobalsUpTo(global_min);
      RefreshAllShards();
      continue;
    }
    TimeNs window_end = global_min + options_.lookahead;
    if (window_end == global_min) {
      // Zero lookahead is only legal single-shard (see the ctor assert);
      // RunWindow's end is exclusive, so open the window one tick past the
      // frontier or no event would ever be admitted.
      ++window_end;
    }
    if (!globals_.empty() && globals_.front().when < window_end) {
      window_end = globals_.front().when;  // > global_min, checked above.
    }

    // Quiet-frontier fusion: exactly one shard below the horizon and no
    // buffered traffic. The window is provably interaction-free — posts from
    // it land at >= t + lookahead >= window_end (the lookahead bound) and
    // every other shard is parked at or past the horizon — so it runs inline
    // with O(1) bookkeeping: no drain scan, no pool handoff, one frontier
    // leaf update. Window boundaries and pred-check instants are exactly the
    // unfused schedule's, so results are byte-identical either way.
    if (fusion_ && dirty_count_.load(std::memory_order_relaxed) == 0) {
      const int s = frontier_.MinShard();
      if (frontier_.MinExcluding(s) >= window_end) {
        window_end_ = window_end;
        tls_shard_context = {this, s};
        shards_[static_cast<size_t>(s)]->RunWindow(window_end);
        tls_shard_context = {this, 0};
        window_end_ = 0;
        RefreshShard(s);
        AccountFusedWindow(s);
        ++windows_;
        ++fused_windows_;
        continue;
      }
    }

    // Full barrier path. The previous epoch's check-ins completed before
    // ExecuteWindow returned, so refilling ready_shards_ needs no lock.
    ready_shards_.clear();
    frontier_.ForEachBelow(window_end, [this](int s) { ready_shards_.push_back(s); });
    if (windows_since_rebalance_ >= static_cast<uint64_t>(rebalance_period_)) {
      Rebalance();
    }
    ExecuteWindow(window_end);
    window_end_ = 0;  // Quiesced: no clamp floor between windows.
    for (const int s : ready_shards_) {
      RefreshShard(s);
    }
    AccountWindow();
    ++windows_;
  }
}

}  // namespace mitt::sim
