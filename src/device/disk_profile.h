// Disk latency profiling (Appendix A).
//
// The MittNoop/MittCFQ predictors must not peek at the DiskModel's ground
// truth parameters; like the paper, they use a profile obtained by measuring
// the device: "we measure the latency (seek cost) of all pairs of random IOs
// per GB distance ... and use linear regression for more accuracy."
//
// DiskProfiler issues isolated IO pairs at controlled distances on an
// otherwise idle simulated disk, builds a distance->cost table (which absorbs
// seek structure and mean rotational latency), and estimates per-KB transfer
// cost from a size sweep. DiskProfile interpolates the table at predict time
// in O(log #buckets).

#ifndef MITTOS_DEVICE_DISK_PROFILE_H_
#define MITTOS_DEVICE_DISK_PROFILE_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/device/disk_model.h"
#include "src/sched/io_request.h"

namespace mitt::device {

class DiskProfile {
 public:
  DiskProfile() = default;

  struct Bucket {
    double distance_gb;
    DurationNs cost;  // Mean positioning cost (seek + rotation) at distance.
  };

  DiskProfile(std::vector<Bucket> buckets, DurationNs transfer_per_kb,
              DurationNs write_ack_latency);

  // Predicted service time for `io` when the head currently sits at
  // `from_offset`. This is the T_processNewIO of §4.1.
  DurationNs PredictServiceTime(int64_t from_offset, const sched::IoRequest& io) const;

  // Positioning cost only (no transfer), used by queue-order modelling.
  DurationNs PositioningCost(int64_t from_offset, int64_t to_offset) const;

  DurationNs transfer_per_kb() const { return transfer_per_kb_; }
  bool valid() const { return !buckets_.empty(); }
  const std::vector<Bucket>& buckets() const { return buckets_; }

 private:
  std::vector<Bucket> buckets_;  // Sorted by distance_gb.
  DurationNs transfer_per_kb_ = 0;
  DurationNs write_ack_latency_ = 0;
};

// Runs the one-time profiling pass (the paper's took 11 hours of wall time on
// a real disk; here it is simulated). The simulator and disk must be
// dedicated to the profiler while it runs.
DiskProfile ProfileDisk(sim::Simulator* sim, DiskModel* disk);

}  // namespace mitt::device

#endif  // MITTOS_DEVICE_DISK_PROFILE_H_
