// What the Mitt* admission predictors share: options (including the §7.7
// error-injection knobs and the §7.6 accuracy-accounting mode), the
// false-positive/false-negative statistics of Figure 9, and the steps every
// predictor takes around its own wait model — the admission decision, the
// bounded calibration sample and the accuracy accounting at completion.

#ifndef MITTOS_OS_PREDICTOR_COMMON_H_
#define MITTOS_OS_PREDICTOR_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <optional>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sched/io_request.h"

namespace mitt::os {

struct PredictorOptions {
  // T_hop: one failover hop; an IO is rejected when the predicted wait
  // exceeds deadline + failover_hop (§4.1).
  DurationNs failover_hop = Micros(300);

  // Continuous calibration of the next-free-time via the predicted-vs-actual
  // diff attached to the IO descriptor (§4.1). Disabling this is the
  // "without our precision improvements" ablation (§7.6).
  bool calibrate = true;

  // §7.6 accuracy accounting: never return EBUSY; instead set
  // IoRequest::ebusy_flagged and let the IO run so the actual completion time
  // can be compared against the deadline.
  bool accuracy_mode = false;

  // §7.7 error injection. With probability false_negative_rate, an IO the
  // predictor wants to reject is let through; with probability
  // false_positive_rate, an IO that meets its deadline is rejected anyway.
  double false_negative_rate = 0.0;
  double false_positive_rate = 0.0;
  uint64_t error_seed = 1234;
};

// Figure 9's inaccuracy accounting, valid in accuracy_mode: "false positives
// (EBUSY is returned, but T_processActual <= T_deadline) and false negatives
// (EBUSY is not returned, but T_processActual > T_deadline)."
struct PredictionStats {
  uint64_t total = 0;
  uint64_t flagged = 0;  // IOs the predictor would have rejected.
  uint64_t false_positives = 0;
  uint64_t false_negatives = 0;
  // Sum over inaccurate IOs of |actual - deadline|, to report how far off
  // the mispredictions are ("all the diffs are <3ms / <1ms on average").
  double wrong_diff_sum_ns = 0;

  double InaccuracyPercent() const {
    if (total == 0) {
      return 0.0;
    }
    return 100.0 * static_cast<double>(false_positives + false_negatives) /
           static_cast<double>(total);
  }
  double MeanWrongDiffNs() const {
    const uint64_t wrong = false_positives + false_negatives;
    return wrong == 0 ? 0.0 : wrong_diff_sum_ns / static_cast<double>(wrong);
  }

  // Records the outcome of one completed deadline-carrying IO.
  void Account(const sched::IoRequest& req, DurationNs actual_latency) {
    ++total;
    const bool violated = actual_latency > req.deadline;
    if (req.ebusy_flagged) {
      ++flagged;
      if (!violated) {
        ++false_positives;
        wrong_diff_sum_ns += static_cast<double>(req.deadline - actual_latency);
      }
    } else if (violated) {
      ++false_negatives;
      wrong_diff_sum_ns += static_cast<double>(actual_latency - req.deadline);
    }
  }
};

// The admission decision for `req` once a predictor has filled in its
// predicted `wait` (§4.1): reject when the wait exceeds the deadline plus one
// failover hop. §7.7's error injection then flips the decision with the
// configured probabilities, drawing from the predictor's own `error_rng`. In
// accuracy mode a rejection only sets req->ebusy_flagged. Returns true if
// the IO must fail with EBUSY; an IO without a deadline is never rejected
// and draws nothing.
inline bool DecideReject(const PredictorOptions& options, Rng& error_rng, sched::IoRequest* req,
                         DurationNs wait) {
  if (!req->has_deadline()) {
    return false;
  }
  bool reject = wait > req->deadline + options.failover_hop;
  if (reject && options.false_negative_rate > 0 &&
      error_rng.Bernoulli(options.false_negative_rate)) {
    reject = false;
  } else if (!reject && options.false_positive_rate > 0 &&
             error_rng.Bernoulli(options.false_positive_rate)) {
    reject = true;
  }
  if (reject && options.accuracy_mode) {
    req->ebusy_flagged = true;
    return false;
  }
  return reject;
}

// §4.1's calibration sample from a completion: T_diff = T_processActual -
// T_processNewIO, bounded so that one completion delayed by background
// destage traffic cannot swing the whole estimate. Empty when calibration is
// off, and for writes: an NVRAM-acked write completes in microseconds while
// its destage runs later, so calibrating on the ack would cancel the
// pre-charged destage cost.
inline std::optional<DurationNs> CalibrationDiff(const PredictorOptions& options,
                                                 const sched::IoRequest& req,
                                                 DurationNs actual_process) {
  if (!options.calibrate || req.op == sched::IoOp::kWrite) {
    return std::nullopt;
  }
  return std::clamp<DurationNs>(actual_process - req.predicted_process, -Millis(5), Millis(5));
}

// §7.6: in accuracy mode, accounts a completed deadline-carrying IO whose
// syscall-entry-to-completion latency ends at `now`.
inline void AccountCompletion(const PredictorOptions& options, const sched::IoRequest& req,
                              TimeNs now, PredictionStats* stats) {
  if (options.accuracy_mode && req.has_deadline()) {
    stats->Account(req, now - req.submit_time);
  }
}

}  // namespace mitt::os

#endif  // MITTOS_OS_PREDICTOR_COMMON_H_
