// MittCFQ (§4.2): admission prediction for the CFQ scheduler.
//
// Performance: the predictor keeps running aggregates — per-class pending
// totals folded into prefix sums, plus an O(1) next-free-time estimate for
// the device queue — updated incrementally on accept/dispatch/cancel, so a
// deadline check is a handful of loads regardless of queue depth.
//
// Accuracy: IOs accepted earlier can later be "bumped to the back" by newly
// arriving higher-class IOs. The predictor keeps a tolerance wheel keyed by
// tolerable time (grouped in 1 ms buckets, exactly as in the paper): when a
// higher-class IO with predicted processing time T arrives, every lower-class
// pending IO's tolerable time shrinks by T; IOs whose tolerable time turns
// negative are cancelled with EBUSY. The shrink is O(1) via a per-class debt
// counter — an entry's effective tolerance is (stored - debt). The wheel is
// a power-of-two ring of intrusive doubly-linked bucket lists threaded
// through the IoRequest tol_prev/tol_next fields, so insert, remove and
// bucket pops never allocate (the pre-overhaul std::map + index hash paid
// two node allocations and three hash/tree lookups per deadline IO).
//
// Building with -DMITT_PREDICT_CHECK=ON keeps the old map-based structures
// in lockstep as an oracle and aborts if any incremental answer diverges.

#ifndef MITTOS_OS_MITT_CFQ_H_
#define MITTOS_OS_MITT_CFQ_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#ifdef MITT_PREDICT_CHECK
#include <map>
#endif

#include "src/common/time.h"
#include "src/device/disk_profile.h"
#include "src/os/predictor_common.h"
#include "src/sched/io_request.h"
#include "src/sim/simulator.h"

namespace mitt::os {

struct MittCfqOptions {
  // Precision features; disabling them reproduces the §7.6 ablation
  // ("without our precision improvements, inaccuracy can be as high as 47%").
  bool bump_cancellation = true;  // The tolerable-time wheel.
  bool use_profile = true;        // Profiled service model vs. a flat constant.
  // Optional multiplicative gain on the service model, calibrated from
  // predicted-vs-actual completion diffs. With writes charged their destage
  // cost up front the additive next-free calibration suffices, and the gain
  // slightly over-corrects; kept as an experimental knob, off by default.
  bool gain_calibration = false;
  // Appendix A also models the device's SSTF *ordering*: a far-from-head IO
  // entering a busy device queue waits behind nearer IOs — including ones
  // that arrive later — up to the device's anti-starvation bound. We learn
  // that extra wait online (EWMA of observed wait beyond the queue-total
  // estimate, gated on a busy device) instead of hard-coding firmware
  // geometry.
  bool starvation_margin = true;
};

class MittCfqPredictor {
 public:
  MittCfqPredictor(sim::Simulator* sim, device::DiskProfile profile,
                   const PredictorOptions& options, const MittCfqOptions& cfq_options);

  // Deadline check for an arriving IO; fills prediction metadata. Returns
  // true if it must be rejected (accuracy mode: flags instead).
  bool ShouldReject(sched::IoRequest* req);

  // Registers an accepted IO; applies the tolerable-time shrink to
  // lower-class pending IOs and returns those whose deadline is now
  // unmeetable. The scheduler must dequeue each victim and complete it with
  // EBUSY (in accuracy mode the victims are flagged and the list is empty).
  // The returned list is a reused internal buffer, valid until the next
  // OnAccepted call.
  const std::vector<sched::IoRequest*>& OnAccepted(sched::IoRequest* req);

  // The IO moved from the CFQ queues into the device queue.
  void OnDispatch(sched::IoRequest* req);

  // The device finished the IO; calibrates the next-free-time.
  void OnCompletion(const sched::IoRequest& req, DurationNs actual_process);

  DurationNs PredictedWaitNow(int32_t pid, sched::IoClass io_class) const;

  const PredictionStats& stats() const { return stats_; }

 private:
  struct ProcShadow {
    sched::IoClass io_class = sched::IoClass::kBestEffort;
    DurationNs pending_total = 0;
    int pending_count = 0;
    int64_t tail_offset = 0;
    // Per-process SSTF-overtaking margin: each process has its own locality,
    // so its IOs see their own reordering penalty on a busy device.
    double starvation_margin_ns = 0;
  };

  // Power-of-two ring of tolerance buckets holding intrusive doubly-linked
  // lists (tol_prev/tol_next on the IoRequest). Bucket indices are absolute
  // (they grow with the cumulative debt); the ring only needs to cover the
  // *span* of live buckets, which is bounded by the largest tolerable time
  // (~deadline + failover hop) divided by the bucket width.
  class ToleranceWheel {
   public:
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }

    void Insert(sched::IoRequest* req, int64_t bucket);
    void Remove(sched::IoRequest* req);
    // Requires !empty(): index of the smallest occupied bucket.
    int64_t MinBucket();
    // Appends bucket's entries to *out in insertion order and empties it.
    void PopBucketInto(int64_t bucket, std::vector<sched::IoRequest*>* out);

   private:
    struct Bucket {
      sched::IoRequest* head = nullptr;
      sched::IoRequest* tail = nullptr;
    };

    static constexpr size_t kInitialBuckets = 128;

    size_t Index(int64_t bucket) const {
      return static_cast<uint64_t>(bucket) & (buckets_.size() - 1);
    }
    void EnsureSpan(int64_t bucket);
    void Tighten();
    void Grow(int64_t needed_span);

    std::vector<Bucket> buckets_;
    // Conservative occupied range: every live entry's bucket lies within
    // [min_, max_]. Removals leave the hints stale (too wide); MinBucket and
    // EnsureSpan re-tighten lazily. Invariant: max_ - min_ + 1 <= capacity,
    // so ring slots never alias within the live range.
    int64_t min_ = 0;
    int64_t max_ = 0;
    size_t count_ = 0;
  };

  struct ClassState {
    DurationNs pending_total = 0;
    DurationNs debt = 0;  // Cumulative tolerable-time shrink.
    // stored tolerance bucket -> IOs in that bucket. An entry's effective
    // tolerance is (stored - debt); stored values are bucketed to 1 ms.
    ToleranceWheel wheel;
  };

  DurationNs PredictProcess(const sched::IoRequest& req) const;
  DurationNs WaitEstimate(int32_t pid, sched::IoClass io_class) const;
  void RemoveFromToleranceTable(sched::IoRequest* req);
  void ForgetPending(sched::IoRequest* req);
  // Adjusts a class's pending total (clamped at zero, as the pre-overhaul
  // code did) and folds the applied delta into the prefix sums.
  void AddClassPending(int rank, DurationNs delta);

  sim::Simulator* sim_;
  device::DiskProfile profile_;
  PredictorOptions options_;
  MittCfqOptions cfq_options_;
  Rng error_rng_;
  PredictionStats stats_;

  std::unordered_map<int32_t, ProcShadow> procs_;
  ClassState classes_[3];
  // prefix_wait_[c] == sum of classes_[0..c].pending_total: the queue part of
  // a class-c wait estimate in a single load.
  DurationNs prefix_wait_[3] = {0, 0, 0};
  std::vector<sched::IoRequest*> victims_;  // Reused OnAccepted result buffer.
  TimeNs device_next_free_ = 0;
  double model_gain_ = 1.0;  // EWMA of actual/predicted service time.
  int device_inflight_ = 0;

#ifdef MITT_PREDICT_CHECK
  // Pre-overhaul structures maintained in lockstep as a recompute oracle.
  void CheckAggregates() const;
  std::map<int64_t, std::vector<sched::IoRequest*>> check_by_tolerance_[3];
  std::unordered_map<const sched::IoRequest*, int64_t> check_index_;
#endif
};

}  // namespace mitt::os

#endif  // MITTOS_OS_MITT_CFQ_H_
