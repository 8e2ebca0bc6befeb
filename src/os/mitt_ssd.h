// MittSSD (§4.3): admission prediction for a host-managed (OpenChannel) SSD.
//
// Unlike the disk, the SSD has no single queue: every chip queues
// independently and channels add transfer delays. The predictor therefore
// keeps the next-available time of *every chip* (O(1) wait computation per
// sub-IO) plus per-channel outstanding-IO counts:
//
//   T_wait = max(0, T_chipNextFree - T_now) + channel_delay * #IOSameChannel
//
// A large IO is striped page-by-page across chips; "if any sub-IO violates
// the deadline, EBUSY is returned for the entire request; all sub-pages are
// not submitted."
//
// The latency constants come from an SsdProfile (vendor spec or the §4.3
// profiling: page read ~100 us, channel delay ~60 us, the per-block
// "11111121121122...2112" program-time pattern stored as a 512-item array,
// erase ~6 ms).
//
// Incremental aggregates: the strawman (single-queue) estimate is a running
// maximum of the chip next-free times (exact, since they only ever advance),
// and completion-side channel accounting is recomputed from the request's
// offset/size instead of a per-request hash-map entry: every IO the device
// completes passed admission first. Building with -DMITT_PREDICT_CHECK=ON
// keeps the old map in lockstep and aborts on divergence.

#ifndef MITTOS_OS_MITT_SSD_H_
#define MITTOS_OS_MITT_SSD_H_

#include <cstdint>
#include <vector>

#ifdef MITT_PREDICT_CHECK
#include <unordered_map>
#endif

#include "src/common/time.h"
#include "src/device/ssd_model.h"
#include "src/device/ssd_profile.h"
#include "src/os/predictor_common.h"
#include "src/sched/io_request.h"
#include "src/sched/sched_obs.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulator.h"

namespace mitt::os {

struct MittSsdOptions {
  // Ablation (§7.6): model chip-level parallelism. When false, the predictor
  // treats the SSD as one FIFO queue (the "block-level calculation will be
  // inaccurate" strawman of §4.3).
  bool per_chip_tracking = true;
  // Ablation: use the profiled per-page program-time pattern; when false all
  // programs are assumed fast (the source of the "up to 6%" inaccuracy).
  bool use_program_pattern = true;
};

class MittSsdPredictor {
 public:
  MittSsdPredictor(sim::Simulator* sim, const device::SsdModel* ssd, device::SsdProfile profile,
                   const PredictorOptions& options, const MittSsdOptions& ssd_options);

  // Deadline check across all sub-pages; fills prediction metadata. Returns
  // true if the whole request must be rejected (accuracy mode: flags).
  bool ShouldReject(sched::IoRequest* req);

  // Registers an accepted request: advances the next-free time of every chip
  // it touches and the outstanding counts of every channel.
  void OnAccepted(sched::IoRequest* req);

  // Unwinds an accepted request's channel counts.
  void OnCompletion(sched::IoRequest* req);

  // Worst-case predicted wait across the request's sub-pages, for EBUSY-with-
  // wait-time extensions (§7.8.1).
  DurationNs PredictedWait(const sched::IoRequest& req) const;

  const PredictionStats& stats() const { return stats_; }

 private:
  DurationNs SubIoService(const sched::IoRequest& req, int64_t logical_page) const;

  sim::Simulator* sim_;
  const device::SsdModel* ssd_;  // Topology only (white-box device layout).
  device::SsdProfile profile_;
  PredictorOptions options_;
  MittSsdOptions ssd_options_;
  Rng error_rng_;
  PredictionStats stats_;

  std::vector<TimeNs> chip_next_free_;
  std::vector<int> channel_outstanding_;
  // Running max of chip_next_free_ (exact: entries only ever advance), so
  // the strawman estimate needs no chip walk.
  TimeNs busiest_next_free_ = 0;

#ifdef MITT_PREDICT_CHECK
  // Pre-overhaul per-request channel lists, kept as a recompute oracle.
  std::unordered_map<uint64_t, std::vector<int>> check_channels_of_;
#endif
};

// The SSD sits under a noop-style block layer ("the use of noop is
// suggested" for SSDs); this layer applies the MittSSD admission check and
// forwards everything else straight to the device.
class SsdBlockLayer : public sched::IoScheduler {
 public:
  SsdBlockLayer(sim::Simulator* sim, device::SsdModel* ssd, MittSsdPredictor* predictor);

  void Submit(sched::IoRequest* req) override;
  size_t PendingCount() const override { return 0; }
  const sched::SchedObs* observer() const override { return &obs_; }

 private:
  void OnDeviceCompletion(sched::IoRequest* req);

  sim::Simulator* sim_;
  device::SsdModel* ssd_;
  MittSsdPredictor* predictor_;
  sched::SchedObs obs_;
};

}  // namespace mitt::os

#endif  // MITTOS_OS_MITT_SSD_H_
