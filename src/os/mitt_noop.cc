#include "src/os/mitt_noop.h"

#include <algorithm>

namespace mitt::os {

MittNoopPredictor::MittNoopPredictor(sim::Simulator* sim, device::DiskProfile profile,
                                     const PredictorOptions& options)
    : sim_(sim), profile_(std::move(profile)), options_(options), error_rng_(kErrorSeed) {}

DurationNs MittNoopPredictor::PredictedWaitNow() const {
  return std::max<DurationNs>(0, next_free_ - sim_->Now());
}

bool MittNoopPredictor::ShouldReject(sched::IoRequest* req) {
  const TimeNs now = sim_->Now();
  if (next_free_ < now) {
    // Disk went idle; re-anchor the estimate (§4.1: "T_nextFree will
    // automatically be calibrated when the disk is idle").
    next_free_ = now;
  }
  const DurationNs wait = next_free_ - now;
  req->predicted_wait = wait;
  req->predicted_process = profile_.PredictServiceTime(tail_offset_, *req);

  return DecideReject(options_, error_rng_, req, wait);
}

void MittNoopPredictor::OnAccepted(const sched::IoRequest& req) {
  const TimeNs now = sim_->Now();
  if (next_free_ < now) {
    next_free_ = now;
  }
  next_free_ += req.predicted_process;
  tail_offset_ = req.offset + req.size;
}

void MittNoopPredictor::OnCompletion(const sched::IoRequest& req, DurationNs actual_process) {
  // §4.1: T_nextFree += T_diff.
  if (const auto diff = CalibrationDiff(options_, req, actual_process)) {
    next_free_ += *diff;
  }
  AccountCompletion(options_, req, sim_->Now(), &stats_);
}

}  // namespace mitt::os
