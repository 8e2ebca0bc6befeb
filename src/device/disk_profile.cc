#include "src/device/disk_profile.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace mitt::device {
namespace {

constexpr double kBytesPerGb = 1024.0 * 1024.0 * 1024.0;

// The profiling pass: IO pairs per measurement, the seek distances it
// samples, and the seed of its offset draws.
constexpr int kSamplesPerBucket = 12;
constexpr double kDistancesGb[] = {0.0,   0.5,   1.0,   2.0,   5.0,   10.0, 20.0,
                                   50.0, 100.0, 200.0, 400.0, 700.0, 950.0};
constexpr uint64_t kProfilerSeed = 42;

// Issues one IO on an idle disk and runs the simulator until it completes.
// Returns the measured service latency.
DurationNs MeasureOne(sim::Simulator* sim, DiskModel* disk, int64_t offset, int64_t size,
                      sched::IoOp op, uint64_t id) {
  sched::IoRequest req;
  req.id = id;
  req.op = op;
  req.offset = offset;
  req.size = size;
  const TimeNs start = sim->Now();
  bool done = false;
  TimeNs end = start;
  disk->set_completion_listener([&](sched::IoRequest*) {
    done = true;
    end = sim->Now();
  });
  disk->Submit(&req);
  sim->RunUntilPredicate([&] { return done; });
  disk->set_completion_listener(nullptr);
  return end - start;
}

}  // namespace

DiskProfile::DiskProfile(std::vector<Bucket> buckets, DurationNs transfer_per_kb,
                         DurationNs write_ack_latency)
    : buckets_(std::move(buckets)),
      transfer_per_kb_(transfer_per_kb),
      write_ack_latency_(write_ack_latency) {
  std::sort(buckets_.begin(), buckets_.end(),
            [](const Bucket& a, const Bucket& b) { return a.distance_gb < b.distance_gb; });
}

DurationNs DiskProfile::PositioningCost(int64_t from_offset, int64_t to_offset) const {
  if (buckets_.empty()) {
    return 0;
  }
  const double d = std::abs(static_cast<double>(to_offset - from_offset)) / kBytesPerGb;
  if (d <= buckets_.front().distance_gb) {
    return buckets_.front().cost;
  }
  if (d >= buckets_.back().distance_gb) {
    return buckets_.back().cost;
  }
  // Linear interpolation between the two surrounding buckets.
  const auto hi = std::lower_bound(
      buckets_.begin(), buckets_.end(), d,
      [](const Bucket& b, double dist) { return b.distance_gb < dist; });
  const auto lo = std::prev(hi);
  const double span = hi->distance_gb - lo->distance_gb;
  const double frac = span > 0 ? (d - lo->distance_gb) / span : 0.0;
  return lo->cost + static_cast<DurationNs>(
                        frac * static_cast<double>(hi->cost - lo->cost));
}

DurationNs DiskProfile::PredictServiceTime(int64_t from_offset,
                                           const sched::IoRequest& io) const {
  // Writes are acknowledged from the drive's NVRAM, but their destage still
  // occupies the head for a full mechanical IO; the predictor must charge
  // that (invisible-to-completion) load up front, or background flusher
  // traffic blindsides every read prediction.
  const DurationNs transfer = transfer_per_kb_ * std::max<int64_t>(1, io.size / 1024);
  return PositioningCost(from_offset, io.offset) + transfer;
}

DiskProfile ProfileDisk(sim::Simulator* sim, DiskModel* disk) {
  Rng rng(kProfilerSeed);
  const int64_t capacity = disk->params().capacity_bytes;
  uint64_t next_id = 0xBEEF0000;

  // 1. Transfer cost: sequential re-reads at the same offset with growing
  // sizes; the positioning component is constant, so the slope is the per-KB
  // transfer cost.
  const int64_t size_lo = 4 * 1024;
  const int64_t size_hi = 1024 * 1024;
  double lat_lo = 0;
  double lat_hi = 0;
  for (int i = 0; i < kSamplesPerBucket; ++i) {
    const int64_t base = rng.UniformInt(0, capacity - 2 * size_hi);
    // Position the head at `base` with a warm-up IO, then time a same-place
    // read of each size.
    MeasureOne(sim, disk, base, 4096, sched::IoOp::kRead, next_id++);
    lat_lo += static_cast<double>(
        MeasureOne(sim, disk, base + 4096, size_lo, sched::IoOp::kRead, next_id++));
    MeasureOne(sim, disk, base, 4096, sched::IoOp::kRead, next_id++);
    lat_hi += static_cast<double>(
        MeasureOne(sim, disk, base + 4096, size_hi, sched::IoOp::kRead, next_id++));
  }
  lat_lo /= kSamplesPerBucket;
  lat_hi /= kSamplesPerBucket;
  const auto transfer_per_kb = static_cast<DurationNs>(
      (lat_hi - lat_lo) / (static_cast<double>(size_hi - size_lo) / 1024.0));

  // 2. Positioning cost per distance bucket: park the head at x, read at
  // x + d, subtract the transfer estimate.
  std::vector<DiskProfile::Bucket> buckets;
  for (const double d_gb : kDistancesGb) {
    const auto d_bytes = static_cast<int64_t>(d_gb * kBytesPerGb);
    double sum = 0;
    int n = 0;
    for (int i = 0; i < kSamplesPerBucket; ++i) {
      const int64_t x = rng.UniformInt(0, std::max<int64_t>(1, capacity - d_bytes - size_hi));
      MeasureOne(sim, disk, x, 4096, sched::IoOp::kRead, next_id++);
      const DurationNs lat =
          MeasureOne(sim, disk, x + 4096 + d_bytes, 4096, sched::IoOp::kRead, next_id++);
      sum += static_cast<double>(lat - transfer_per_kb * 4);
      ++n;
    }
    buckets.push_back({d_gb, static_cast<DurationNs>(sum / n)});
  }

  // 3. Write acknowledgement latency (NVRAM-buffered writes ack fast).
  double wsum = 0;
  for (int i = 0; i < kSamplesPerBucket; ++i) {
    const int64_t x = rng.UniformInt(0, capacity - size_hi);
    wsum += static_cast<double>(
        MeasureOne(sim, disk, x, 4096, sched::IoOp::kWrite, next_id++));
    // Drain the background destage before the next measurement.
    sim->Run();
  }
  const auto write_ack = static_cast<DurationNs>(wsum / kSamplesPerBucket);

  return DiskProfile(std::move(buckets), transfer_per_kb, write_ack);
}

}  // namespace mitt::device
