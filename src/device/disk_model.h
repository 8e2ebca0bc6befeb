// Rotational-disk model with an SSTF-reordering device queue.
//
// This is the ground truth the MittNoop/MittCFQ predictors must approximate.
// The service-time model follows classic disk characterization work
// ([48, 49] in the paper): a seek component that grows with distance (with a
// sublinear short-seek term), a uniformly distributed rotational-latency
// component, and a size-proportional transfer component, plus small
// multiplicative jitter. The device queue reorders pending IOs by SSTF, which
// the paper found its target disk to use (Appendix A).
//
// Writes can be absorbed by capacitor-backed NVRAM (§7.8.6): they are
// acknowledged at NVRAM latency and destaged to the platters in the
// background, still consuming head time (and thus still producing contention
// for readers).

#ifndef MITTOS_DEVICE_DISK_MODEL_H_
#define MITTOS_DEVICE_DISK_MODEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sched/io_request.h"
#include "src/sim/simulator.h"

namespace mitt::device {

struct DiskParams {
  int64_t capacity_bytes = 1'000LL * 1024 * 1024 * 1024;  // ~1 TB.
  size_t queue_depth = 32;                                // NCQ depth.

  // Seek cost from offset x to y over d = |gb(y) - gb(x)|:
  //   seek = seek_base + seek_per_gb * d + seek_sqrt_coeff * sqrt(d).
  DurationNs seek_base = Micros(2500);
  DurationNs seek_per_gb = Micros(3);
  DurationNs seek_sqrt_coeff = Micros(60);

  // Rotational latency: uniform in [0, rotational_max] per mechanical IO.
  DurationNs rotational_max = Millis(2);

  // Sequential transfer: ~160 MB/s -> ~6.1 us per KiB.
  DurationNs transfer_per_kb = 6'100;

  // Multiplicative service-time jitter, uniform in [1-j, 1+j].
  double jitter = 0.02;

  // Anti-starvation aging for the SSTF queue: an IO waiting longer than this
  // is served ahead of nearer IOs (real NCQ firmware bounds starvation the
  // same way; without it a competing tenant's far-away IOs could starve
  // forever behind a stream of near-head IOs).
  DurationNs max_starvation = Millis(30);

  // NVRAM write buffering (§7.8.6). When enabled, writes are acknowledged at
  // nvram_latency and destaged in the background.
  bool nvram_writes = true;
  DurationNs nvram_latency = Micros(50);
};

class DiskModel {
 public:
  DiskModel(sim::Simulator* sim, const DiskParams& params, uint64_t seed);

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  // True if the device queue can absorb another IO.
  bool CanAccept() const;

  // Hands an IO to the device. The caller keeps ownership of the request;
  // the device holds a raw pointer until it reports completion.
  // Requires CanAccept().
  void Submit(sched::IoRequest* req);

  // Invoked for every completed IO (including background destages, which have
  // a null on_complete). The scheduler above uses this to dispatch more IOs.
  void set_completion_listener(std::function<void(sched::IoRequest*)> listener) {
    listener_ = std::move(listener);
  }

  // Invoked whenever device-queue capacity frees up without a user-visible
  // completion (background destages draining). Schedulers use this to keep
  // dispatching; without it a queue full of destages would deadlock them.
  void set_capacity_listener(std::function<void()> listener) {
    capacity_listener_ = std::move(listener);
  }

  // Deterministic expected service time (no jitter, expected rotation) from
  // head position `from` — this is what an oracle predictor would use, and
  // what the profiler (disk_profile) tries to learn by measurement.
  DurationNs ExpectedServiceTime(int64_t from_offset, const sched::IoRequest& io) const;

  // Number of IOs held by the device (queued + in service).
  size_t Occupancy() const { return queue_.size() + (in_service_ != nullptr ? 1 : 0); }
  bool idle() const { return in_service_ == nullptr && queue_.empty(); }

  // Pending (not yet in-service) IOs, for O(N) baseline predictors and tests.
  const std::vector<sched::IoRequest*>& queued() const { return queue_; }

  const DiskParams& params() const { return params_; }

  // --- Fail-slow injection (src/fault/) ---
  // Multiplies the *actual* mechanical service time of every IO started while
  // set (sampled at service start, so an in-flight IO keeps its time).
  // ExpectedServiceTime is deliberately NOT scaled: it is the healthy model
  // the profiler learned, so a degrading device drifts away from its
  // predictor exactly the way a real fail-slow disk does.
  void set_service_time_multiplier(double m) { service_multiplier_ = m; }
  double service_time_multiplier() const { return service_multiplier_; }

  // Total IOs completed (including destages), for tests.
  uint64_t completed_count() const { return completed_; }

 private:
  // Picks the queued IO with the smallest seek distance from the head (SSTF)
  // and starts serving it.
  void StartNext();
  void OnServiceDone(sched::IoRequest* req);

  DurationNs SampledServiceTime(int64_t from_offset, const sched::IoRequest& io);
  DurationNs SeekCost(int64_t from_offset, int64_t to_offset) const;

  sim::Simulator* sim_;
  DiskParams params_;
  Rng rng_;
  std::function<void(sched::IoRequest*)> listener_;
  std::function<void()> capacity_listener_;

  std::vector<sched::IoRequest*> queue_;
  sched::IoRequest* in_service_ = nullptr;
  double service_multiplier_ = 1.0;
  int64_t head_pos_ = 0;
  uint64_t completed_ = 0;
  uint64_t destage_seq_ = 0;

  // Background-destage descriptors are pooled: acquired on write submit,
  // released when the destage leaves the head.
  sched::IoRequestPool destage_pool_;
};

}  // namespace mitt::device

#endif  // MITTOS_DEVICE_DISK_MODEL_H_
