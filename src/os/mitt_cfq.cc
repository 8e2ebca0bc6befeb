#include "src/os/mitt_cfq.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace mitt::os {
namespace {

int ClassRank(sched::IoClass c) { return static_cast<int>(c); }

// EWMA weights of the learned starvation margin and of the service-model
// gain (MittCfqOptions::starvation_margin and gain_calibration).
constexpr double kMarginEwmaAlpha = 0.1;
constexpr double kGainEwmaAlpha = 0.2;
// The starvation margin applies once the device holds this many IOs.
constexpr int kBusyDeviceInflight = 3;
// Per-IO service estimate when use_profile is off (the §7.6 ablation).
constexpr DurationNs kFlatServiceEstimate = Millis(6);
// Tolerance-wheel bucket width: the paper groups tolerable times by 1 ms.
constexpr DurationNs kTolerableBucket = Millis(1);

}  // namespace

// --- ToleranceWheel ---------------------------------------------------------

void MittCfqPredictor::ToleranceWheel::Insert(sched::IoRequest* req, int64_t bucket) {
  EnsureSpan(bucket);
  Bucket& b = buckets_[Index(bucket)];
  req->tol_bucket = bucket;
  req->in_tolerance = true;
  req->tol_next = nullptr;
  req->tol_prev = b.tail;
  if (b.tail != nullptr) {
    b.tail->tol_next = req;
  } else {
    b.head = req;
  }
  b.tail = req;
  if (count_ == 0) {
    min_ = max_ = bucket;
  } else {
    min_ = std::min(min_, bucket);
    max_ = std::max(max_, bucket);
  }
  ++count_;
}

void MittCfqPredictor::ToleranceWheel::Remove(sched::IoRequest* req) {
  Bucket& b = buckets_[Index(req->tol_bucket)];
  if (req->tol_prev != nullptr) {
    req->tol_prev->tol_next = req->tol_next;
  } else {
    b.head = req->tol_next;
  }
  if (req->tol_next != nullptr) {
    req->tol_next->tol_prev = req->tol_prev;
  } else {
    b.tail = req->tol_prev;
  }
  req->tol_prev = req->tol_next = nullptr;
  req->in_tolerance = false;
  --count_;
}

int64_t MittCfqPredictor::ToleranceWheel::MinBucket() {
  while (buckets_[Index(min_)].head == nullptr) {
    ++min_;
  }
  return min_;
}

void MittCfqPredictor::ToleranceWheel::PopBucketInto(int64_t bucket,
                                                     std::vector<sched::IoRequest*>* out) {
  Bucket& b = buckets_[Index(bucket)];
  for (sched::IoRequest* it = b.head; it != nullptr;) {
    sched::IoRequest* next = it->tol_next;
    it->tol_prev = it->tol_next = nullptr;
    it->in_tolerance = false;
    out->push_back(it);
    --count_;
    it = next;
  }
  b.head = b.tail = nullptr;
}

void MittCfqPredictor::ToleranceWheel::EnsureSpan(int64_t bucket) {
  if (buckets_.empty()) {
    buckets_.resize(kInitialBuckets);
  }
  if (count_ == 0) {
    return;  // A single bucket always fits.
  }
  int64_t lo = std::min(min_, bucket);
  int64_t hi = std::max(max_, bucket);
  if (hi - lo + 1 <= static_cast<int64_t>(buckets_.size())) {
    return;
  }
  // The hints may be stale after removals; shrink them to the real occupied
  // range before paying for a grow.
  Tighten();
  lo = std::min(min_, bucket);
  hi = std::max(max_, bucket);
  if (hi - lo + 1 <= static_cast<int64_t>(buckets_.size())) {
    return;
  }
  Grow(hi - lo + 1);
}

void MittCfqPredictor::ToleranceWheel::Tighten() {
  while (min_ < max_ && buckets_[Index(min_)].head == nullptr) {
    ++min_;
  }
  while (max_ > min_ && buckets_[Index(max_)].head == nullptr) {
    --max_;
  }
}

void MittCfqPredictor::ToleranceWheel::Grow(int64_t needed_span) {
  size_t cap = buckets_.size();
  while (static_cast<int64_t>(cap) < needed_span) {
    cap *= 2;
  }
  std::vector<Bucket> next(cap);
  // Within [min_, max_] the old ring has no aliasing (span <= old capacity),
  // and each bucket maps to a distinct slot in the larger ring.
  const size_t old_mask = buckets_.size() - 1;
  for (int64_t b = min_; b <= max_; ++b) {
    const Bucket& old_b = buckets_[static_cast<uint64_t>(b) & old_mask];
    if (old_b.head != nullptr && old_b.head->tol_bucket == b) {
      next[static_cast<uint64_t>(b) & (cap - 1)] = old_b;
    }
  }
  buckets_ = std::move(next);
}

// --- MittCfqPredictor -------------------------------------------------------

MittCfqPredictor::MittCfqPredictor(sim::Simulator* sim, device::DiskProfile profile,
                                   const PredictorOptions& options,
                                   const MittCfqOptions& cfq_options)
    : sim_(sim),
      profile_(std::move(profile)),
      options_(options),
      cfq_options_(cfq_options),
      error_rng_(kErrorSeed) {
  procs_.reserve(64);
  victims_.reserve(16);
}

DurationNs MittCfqPredictor::PredictProcess(const sched::IoRequest& req) const {
  if (!cfq_options_.use_profile) {
    return kFlatServiceEstimate;
  }
  const auto it = procs_.find(req.pid);
  const int64_t from = it != procs_.end() ? it->second.tail_offset : 0;
  const auto base = static_cast<double>(profile_.PredictServiceTime(from, req));
  return static_cast<DurationNs>(base * model_gain_);
}

void MittCfqPredictor::AddClassPending(int rank, DurationNs delta) {
  DurationNs& total = classes_[rank].pending_total;
  const DurationNs before = total;
  total += delta;
  if (total < 0) {
    total = 0;
  }
  const DurationNs applied = total - before;
  for (int c = rank; c < 3; ++c) {
    prefix_wait_[c] += applied;
  }
}

DurationNs MittCfqPredictor::WaitEstimate(int32_t pid, sched::IoClass io_class) const {
#ifdef MITT_PREDICT_CHECK
  CheckAggregates();
#endif
  // Device queue first: everything already dispatched must finish. Then every
  // pending IO in classes that CFQ serves before ours, plus the pending IOs
  // of our own class (round-robin: assume they are ahead) — the prefix sum.
  DurationNs wait = std::max<DurationNs>(0, device_next_free_ - sim_->Now()) +
                    prefix_wait_[ClassRank(io_class)];
  // SSTF-reordering risk: on a busy device, later-arriving nearer IOs can
  // overtake this process' IOs up to the firmware's anti-starvation bound.
  if (cfq_options_.starvation_margin &&
      device_inflight_ >= kBusyDeviceInflight) {
    const auto it = procs_.find(pid);
    if (it != procs_.end()) {
      wait += static_cast<DurationNs>(it->second.starvation_margin_ns);
    }
  }
  return wait;
}

DurationNs MittCfqPredictor::PredictedWaitNow(int32_t pid, sched::IoClass io_class) const {
  return WaitEstimate(pid, io_class);
}

bool MittCfqPredictor::ShouldReject(sched::IoRequest* req) {
  const DurationNs wait = WaitEstimate(req->pid, req->io_class);
  req->predicted_wait = wait;
  req->predicted_process = PredictProcess(*req);

  return DecideReject(options_, error_rng_, req, wait);
}

const std::vector<sched::IoRequest*>& MittCfqPredictor::OnAccepted(sched::IoRequest* req) {
  ProcShadow& proc = procs_[req->pid];
  proc.io_class = req->io_class;
  proc.pending_total += req->predicted_process;
  proc.pending_count += 1;
  proc.tail_offset = req->offset + req->size;
  AddClassPending(ClassRank(req->io_class), req->predicted_process);

  victims_.clear();
  if (!cfq_options_.bump_cancellation) {
    return victims_;
  }

  // Insert this IO into the tolerable-time wheel (deadline-carrying IOs
  // only): tolerance = slack left after the predicted wait.
  if (req->has_deadline() && !req->ebusy_flagged) {
    ClassState& cls = classes_[ClassRank(req->io_class)];
    const DurationNs tolerance =
        req->deadline + kFailoverHop - req->predicted_wait;
    const DurationNs stored = tolerance + cls.debt;
    const int64_t bucket = stored / kTolerableBucket;
    cls.wheel.Insert(req, bucket);
#ifdef MITT_PREDICT_CHECK
    check_by_tolerance_[ClassRank(req->io_class)][bucket].push_back(req);
    check_index_[req] = bucket;
#endif
  }

  // This arrival bumps every pending IO of *lower* classes back by its
  // predicted processing time; collect the ones whose tolerance goes
  // negative.
  for (int c = ClassRank(req->io_class) + 1; c < 3; ++c) {
    ClassState& cls = classes_[c];
    cls.debt += req->predicted_process;
    while (!cls.wheel.empty()) {
      const int64_t bucket = cls.wheel.MinBucket();
      // Entries in bucket b have stored tolerance in
      // [b*bucket, (b+1)*bucket); all are certainly negative once
      // (b+1)*bucket <= debt, and possibly negative when b*bucket < debt.
      const int64_t bucket_lo = bucket * kTolerableBucket;
      if (bucket_lo >= cls.debt) {
        break;
      }
      const int64_t bucket_hi = bucket_lo + kTolerableBucket;
      if (bucket_hi <= cls.debt) {
        cls.wheel.PopBucketInto(bucket, &victims_);
        continue;
      }
      // Boundary bucket: keep it. Bucketing to 1 ms means IOs within the
      // boundary bucket are given the benefit of the doubt, exactly the
      // granularity loss the paper accepts by grouping by 1 ms.
      break;
    }
  }

#ifdef MITT_PREDICT_CHECK
  // Replay the pop on the map-based oracle and demand identical victims.
  std::vector<sched::IoRequest*> oracle;
  for (int c = ClassRank(req->io_class) + 1; c < 3; ++c) {
    auto& table = check_by_tolerance_[c];
    const DurationNs debt = classes_[c].debt;
    while (!table.empty()) {
      auto it = table.begin();
      const int64_t bucket_lo = it->first * kTolerableBucket;
      if (bucket_lo >= debt) {
        break;
      }
      if (bucket_lo + kTolerableBucket <= debt) {
        for (sched::IoRequest* victim : it->second) {
          check_index_.erase(victim);
          oracle.push_back(victim);
        }
        table.erase(it);
        continue;
      }
      break;
    }
  }
  if (oracle != victims_) {
    std::fprintf(stderr,
                 "MittCfq predict-check: wheel victims (%zu) diverge from map "
                 "oracle (%zu)\n",
                 victims_.size(), oracle.size());
    std::abort();
  }
  CheckAggregates();
#endif

  if (options_.accuracy_mode) {
    for (sched::IoRequest* victim : victims_) {
      victim->ebusy_flagged = true;
    }
    victims_.clear();
  }
  for (sched::IoRequest* victim : victims_) {
    ForgetPending(victim);
  }
  return victims_;
}

void MittCfqPredictor::RemoveFromToleranceTable(sched::IoRequest* req) {
  if (!req->in_tolerance) {
    return;
  }
  ClassState& cls = classes_[ClassRank(req->io_class)];
  cls.wheel.Remove(req);
#ifdef MITT_PREDICT_CHECK
  const auto idx = check_index_.find(req);
  if (idx == check_index_.end()) {
    std::fprintf(stderr, "MittCfq predict-check: wheel entry missing from oracle\n");
    std::abort();
  }
  auto& table = check_by_tolerance_[ClassRank(req->io_class)];
  const auto bucket_it = table.find(idx->second);
  auto& vec = bucket_it->second;
  vec.erase(std::remove(vec.begin(), vec.end(), req), vec.end());
  if (vec.empty()) {
    table.erase(bucket_it);
  }
  check_index_.erase(idx);
#endif
}

void MittCfqPredictor::ForgetPending(sched::IoRequest* req) {
  RemoveFromToleranceTable(req);
  auto it = procs_.find(req->pid);
  if (it != procs_.end()) {
    it->second.pending_total -= req->predicted_process;
    it->second.pending_count -= 1;
    if (it->second.pending_total < 0) {
      it->second.pending_total = 0;
    }
  }
  AddClassPending(ClassRank(req->io_class), -req->predicted_process);
}

void MittCfqPredictor::OnDispatch(sched::IoRequest* req) {
  ForgetPending(req);
  ++device_inflight_;
  const TimeNs now = sim_->Now();
  if (device_next_free_ < now) {
    device_next_free_ = now;
  }
  device_next_free_ += req->predicted_process;
}

void MittCfqPredictor::OnCompletion(const sched::IoRequest& req, DurationNs actual_process) {
  device_inflight_ = std::max(0, device_inflight_ - 1);
  if (cfq_options_.starvation_margin && req.predicted_wait > Millis(2)) {
    // Observed wait beyond the queue-total estimate (0 when the estimate was
    // sufficient, letting the margin decay in calm periods). predicted_wait
    // already contained the margin applied at accept, so add the current
    // margin back to sample the excess over the *base* estimate.
    const DurationNs actual_wait = (sim_->Now() - req.submit_time) - actual_process;
    double& margin = procs_[req.pid].starvation_margin_ns;
    // Signed sample (a symmetric-error workload must not ratchet the margin
    // up); the margin itself is kept non-negative.
    const double excess =
        std::clamp(static_cast<double>(actual_wait - req.predicted_wait) + margin,
                   -static_cast<double>(Millis(100)), static_cast<double>(Millis(100)));
    margin = (1.0 - kMarginEwmaAlpha) * margin + kMarginEwmaAlpha * excess;
    margin = std::max(margin, 0.0);
  }
  if (const auto diff = CalibrationDiff(options_, req, actual_process)) {
    device_next_free_ += *diff;
    if (cfq_options_.gain_calibration && req.predicted_process > 0) {
      // Fold the SSTF-reordering advantage (and any device drift) into the
      // service model: gain tracks actual/predicted service time.
      double ratio = static_cast<double>(actual_process) /
                     static_cast<double>(req.predicted_process);
      ratio = std::clamp(ratio * model_gain_, 0.1, 10.0);
      model_gain_ = (1.0 - kGainEwmaAlpha) * model_gain_ + kGainEwmaAlpha * ratio;
    }
  }
  AccountCompletion(options_, req, sim_->Now(), &stats_);
}

#ifdef MITT_PREDICT_CHECK
void MittCfqPredictor::CheckAggregates() const {
  DurationNs prefix = 0;
  size_t wheel_total = 0;
  for (int c = 0; c < 3; ++c) {
    prefix += classes_[c].pending_total;
    if (prefix_wait_[c] != prefix) {
      std::fprintf(stderr,
                   "MittCfq predict-check: prefix_wait_[%d]=%lld != recomputed %lld\n",
                   c, static_cast<long long>(prefix_wait_[c]),
                   static_cast<long long>(prefix));
      std::abort();
    }
    wheel_total += classes_[c].wheel.size();
  }
  if (wheel_total != check_index_.size()) {
    std::fprintf(stderr,
                 "MittCfq predict-check: wheel holds %zu entries, oracle %zu\n",
                 wheel_total, check_index_.size());
    std::abort();
  }
}
#endif

}  // namespace mitt::os
