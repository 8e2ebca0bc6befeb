// Deterministic discrete-event simulation engine.
//
// Every MittOS component — devices, schedulers, the OS, network links,
// clients, noise injectors — is an actor that schedules callbacks on one
// Simulator. Events fire in (time, sequence) order, so two events at the same
// instant fire in scheduling order and a run is reproducible bit-for-bit.
//
// Hot-path design (see DESIGN.md "Event engine internals"):
//  - Closures are InlineFunction<void()> (src/common/inline_function.h):
//    captures up to 48 bytes live inline, so the steady-state Schedule->fire
//    path performs zero heap allocations.
//  - Event bodies live in a pooled slot arena (fixed-size blocks, stable
//    addresses) recycled through a free list; the priority queue orders small
//    trivially-copyable handles (time, seq, slot), never the closures
//    themselves. Popping invokes the closure *in place* in its slot —
//    closures are moved once at Schedule() and never copied.
//  - Cancellation sets a tombstone flag directly on the pooled slot (no side
//    lookup table). EventIds encode (slot, generation), so a stale id — an
//    event that already fired or was already cancelled — is detected by a
//    generation mismatch and Cancel() returns false instead of corrupting
//    the pending-event accounting.

#ifndef MITTOS_SIM_SIMULATOR_H_
#define MITTOS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/time.h"
#include "src/obs/gate.h"

namespace mitt::obs {
class MetricsRegistry;
class Tracer;
}  // namespace mitt::obs

namespace mitt::sim {

class ShardedEngine;

// Handle for cancelling a scheduled event. Encodes (pool slot + 1) in the
// high 32 bits and the slot's generation in the low 32 bits; 0 is never a
// valid id. Ids are unique over any realistic run (a slot must be reused
// 2^32 times for a generation to repeat).
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

// The event callback type. Move-only; captures up to kInlineFunctionBytes
// are stored inline (no allocation), larger captures fall back to the heap.
using Callback = InlineFunction<void()>;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules `fn` to run `delay` from now (delay < 0 is clamped to 0).
  // Defined inline: the schedule path is hot enough that cross-TU call
  // overhead shows up in bench_simcore.
  EventId Schedule(DurationNs delay, Callback fn) {
    if (delay < 0) {
      delay = 0;
    }
    return ScheduleInternal(now_ + delay, /*daemon=*/false, std::move(fn));
  }

  // Schedules `fn` at absolute time `when` (clamped to Now()).
  EventId ScheduleAt(TimeNs when, Callback fn) {
    return ScheduleInternal(when, /*daemon=*/false, std::move(fn));
  }

  // Daemon variants: periodic/background timers (cache flushers, snitch
  // refreshes, GC) that must not keep Run() alive. Run() returns once only
  // daemon events remain; a daemon event still fires if a non-daemon event
  // later than it exists.
  EventId ScheduleDaemon(DurationNs delay, Callback fn) {
    if (delay < 0) {
      delay = 0;
    }
    return ScheduleInternal(now_ + delay, /*daemon=*/true, std::move(fn));
  }

  // Cancels a pending event. Returns true if the event was still pending;
  // returns false for ids that already fired or were already cancelled.
  bool Cancel(EventId id);

  // Runs until the event queue is empty.
  void Run();

  // Runs until simulated time reaches `deadline` (events at exactly `deadline`
  // are executed) or the queue drains.
  void RunUntil(TimeNs deadline);

  // Runs until `pred()` returns true (checked after each event) or the queue
  // drains. Returns true if the predicate was satisfied.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  // Live (scheduled, not cancelled, not yet fired) events.
  size_t pending_events() const { return live_events_; }
  uint64_t executed_events() const { return executed_; }
  // Heap entries (including tombstones) that are non-daemon — the engine's
  // termination count; matches what Run() uses internally.
  size_t non_daemon_pending() const { return non_daemon_pending_; }

  // --- Sharded-engine hooks (src/sim/sharded_engine.h) ---
  //
  // A Simulator either runs standalone (every hook below is inert and
  // engine() is nullptr) or as one shard of a ShardedEngine, which drives it
  // through RunWindow/AdvanceTo/NextEventTime at conservative-window
  // barriers (or through its own loop, if it is the only shard). Components
  // query shard_id()/engine() to route cross-shard interactions; none of
  // this touches the Step() hot path.
  void SetShardContext(ShardedEngine* engine, int shard_id) {
    engine_ = engine;
    shard_id_ = shard_id;
  }
  ShardedEngine* engine() const { return engine_; }
  int shard_id() const { return shard_id_; }

  // Time of the earliest live event, or -1 when the queue holds nothing
  // runnable. Lazily pops tombstoned entries off the top.
  TimeNs NextEventTime();

  // Executes every event with timestamp strictly below `end`. Does NOT
  // advance Now() to `end` afterwards — between windows the engine advances
  // quiesced shard clocks explicitly (AdvanceTo) only when a global event
  // needs a consistent timestamp.
  void RunWindow(TimeNs end);

  // Forward-only clock jump. Engine-internal: only valid while this shard is
  // quiesced at a barrier (no event mid-flight).
  void AdvanceTo(TimeNs t) {
    if (now_ < t) {
      now_ = t;
    }
  }

  // Pool introspection (perf monitoring; see bench_simcore).
  size_t pool_capacity() const { return num_slots_; }

  // --- Observability hooks (src/obs/) ---
  //
  // One tracer/metrics registry per simulator keeps tracing deterministic:
  // each parallel trial owns its own simulator and therefore its own span
  // buffer and counters, merged in trial order by the harness. Attach before
  // building the world — instrumented layers cache their metric handles at
  // construction or first use.
  //
  // The accessors compile to constant nullptr under MITT_OBS_DISABLED, so
  // every `if (auto* t = sim->tracer())` recording site folds away; with obs
  // compiled in but nothing attached, a site costs one null-check.
  obs::Tracer* tracer() const {
#if MITT_OBS_ENABLED
    return tracer_;
#else
    return nullptr;
#endif
  }
  obs::MetricsRegistry* metrics() const {
#if MITT_OBS_ENABLED
    return metrics_;
#else
    return nullptr;
#endif
  }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  // Slots live in fixed-size arena blocks so their addresses are stable:
  // Step() invokes a closure *in place* (no pop-side move) even while the
  // callback schedules new events and grows the pool.
  static constexpr size_t kSlotBlockShift = 10;
  static constexpr size_t kSlotBlockSize = size_t{1} << kSlotBlockShift;

  // Closure storage, recycled through a free list. The generation counter
  // distinguishes the slot's current occupant from ids handed out for
  // previous occupants.
  struct Slot {
    Callback fn;
    uint32_t generation = 1;
    uint32_t next_free = kNoSlot;
    bool daemon = false;
    bool cancelled = false;
    bool occupied = false;
  };

  // What the heap actually orders: 24 trivially-copyable bytes.
  struct Handle {
    TimeNs when;
    uint64_t seq;
    uint32_t slot;
  };
  static bool HandleLess(const Handle& a, const Handle& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  // 4-ary min-heap over handles: half the tree depth of a binary heap and
  // sibling nodes share cache lines, which measurably cuts sift cost at the
  // pending-event counts the experiments run at (see BENCH_simcore.json).
  // Hole-based sifting: carry the moving handle in registers and shift
  // entries into the hole — half the memory traffic of swap-based sifting.
  void HeapPush(Handle h) {
    size_t i = heap_.size();
    heap_.push_back(h);  // Placeholder; overwritten below.
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!HandleLess(h, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = h;
  }

  void HeapPopTop();
  const Handle& HeapTop() const { return heap_[0]; }
  bool HeapEmpty() const { return heap_.empty(); }

  EventId ScheduleInternal(TimeNs when, bool daemon, Callback fn) {
    if (when < now_) {
      when = now_;
    }
    const uint32_t index = AcquireSlot();
    Slot& slot = SlotAt(index);
    slot.fn = std::move(fn);
    slot.daemon = daemon;
    slot.occupied = true;
    HeapPush(Handle{when, next_seq_++, index});
    ++live_events_;
    if (!daemon) {
      ++non_daemon_pending_;
    }
    return MakeId(index, slot.generation);
  }

  Slot& SlotAt(uint32_t index) {
    return slot_blocks_[index >> kSlotBlockShift][index & (kSlotBlockSize - 1)];
  }

  uint32_t AcquireSlot() {
    if (free_head_ != kNoSlot) {
      const uint32_t index = free_head_;
      free_head_ = SlotAt(index).next_free;
      return index;
    }
    if (num_slots_ == slot_blocks_.size() * kSlotBlockSize) {
      slot_blocks_.push_back(std::make_unique<Slot[]>(kSlotBlockSize));
    }
    return static_cast<uint32_t>(num_slots_++);
  }

  void ReleaseSlot(uint32_t index);

  static uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id >> 32) - 1;  // Wraps to UINT32_MAX for id < 2^32.
  }
  static uint32_t GenerationOf(EventId id) { return static_cast<uint32_t>(id); }
  static EventId MakeId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot + 1) << 32) | generation;
  }

  // Pops and executes the earliest event. Returns false if the queue is empty.
  bool Step();

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;

  ShardedEngine* engine_ = nullptr;
  int shard_id_ = 0;

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  size_t live_events_ = 0;
  size_t non_daemon_pending_ = 0;  // Heap entries (incl. tombstones) that are non-daemon.
  std::vector<Handle> heap_;
  std::vector<std::unique_ptr<Slot[]>> slot_blocks_;
  size_t num_slots_ = 0;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace mitt::sim

#endif  // MITTOS_SIM_SIMULATOR_H_
