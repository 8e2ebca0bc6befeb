#include "src/noise/noise_injector.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mitt::noise {
namespace {

// Delay after a cache episode's end until the working set is resident again.
constexpr DurationNs kCacheRestoreDelay = Millis(50);

// Each episode is queued by the one before it, so the schedule must not go
// back in time: an earlier start queued later would fire late.
std::vector<NoiseEpisode> Chronological(std::vector<NoiseEpisode> schedule) {
  if (!std::is_sorted(schedule.begin(), schedule.end(),
                      [](const NoiseEpisode& a, const NoiseEpisode& b) {
                        return a.start < b.start;
                      })) {
    throw std::invalid_argument("noise injector: episode starts decrease");
  }
  return schedule;
}

}  // namespace

IoNoiseInjector::IoNoiseInjector(sim::Simulator* sim, os::Os* target_os, uint64_t file,
                                 int64_t file_size, std::vector<NoiseEpisode> schedule,
                                 const Options& options, uint64_t seed)
    : sim_(sim),
      os_(target_os),
      file_(file),
      file_size_(file_size),
      schedule_(Chronological(std::move(schedule))),
      options_(options),
      rng_(seed) {}

void IoNoiseInjector::Start() { ScheduleEpisode(0); }

void IoNoiseInjector::ScheduleEpisode(size_t index) {
  if (index < schedule_.size()) {
    sim_->ScheduleAt(schedule_[index].start, [this, index] { BeginEpisode(index); });
  }
}

void IoNoiseInjector::BeginEpisode(size_t index) {
  // Queue the next episode first, so it stays ahead of any event this one
  // queues for the same instant.
  ScheduleEpisode(index + 1);
  ++episodes_run_;
  const NoiseEpisode& episode = schedule_[index];
  const TimeNs end = episode.start + episode.duration;
  const int streams = episode.intensity * options_.streams_per_intensity;
  for (int s = 0; s < streams; ++s) {
    ++active_streams_;
    StreamLoop(end);
  }
}

void IoNoiseInjector::StreamLoop(TimeNs episode_end) {
  if (sim_->Now() >= episode_end) {
    --active_streams_;
    return;
  }
  const int64_t max_offset = std::max<int64_t>(1, file_size_ - options_.io_size);
  ++ios_issued_;
  if (options_.op == sched::IoOp::kRead) {
    os::Os::ReadArgs args;
    args.file = file_;
    args.offset = rng_.UniformInt(0, max_offset);
    args.size = options_.io_size;
    args.pid = options_.pid;
    args.io_class = options_.io_class;
    args.priority = options_.priority;
    args.bypass_cache = true;  // Always hit the device.
    os_->ReadWithWaitHint(args,
                          [this, episode_end](Status, DurationNs) { StreamLoop(episode_end); });
  } else {
    os::Os::WriteArgs args;
    args.file = file_;
    args.offset = rng_.UniformInt(0, max_offset);
    args.size = options_.io_size;
    args.pid = options_.pid;
    args.io_class = options_.io_class;
    args.priority = options_.priority;
    args.sync = true;  // Contend at the device, not the buffer cache.
    os_->Write(args, [this, episode_end](Status, DurationNs) { StreamLoop(episode_end); });
  }
}

CacheNoiseInjector::CacheNoiseInjector(sim::Simulator* sim, os::Os* target_os,
                                       std::vector<NoiseEpisode> schedule,
                                       const Options& options, uint64_t seed)
    : sim_(sim),
      os_(target_os),
      schedule_(Chronological(std::move(schedule))),
      options_(options),
      rng_(seed) {}

void CacheNoiseInjector::Start() { ScheduleEpisode(0); }

void CacheNoiseInjector::ScheduleEpisode(size_t index) {
  if (index < schedule_.size()) {
    sim_->ScheduleAt(schedule_[index].start, [this, index] { RunEpisode(index); });
  }
}

void CacheNoiseInjector::RunEpisode(size_t index) {
  ScheduleEpisode(index + 1);  // First, as in IoNoiseInjector::BeginEpisode.
  ++episodes_run_;
  const NoiseEpisode& episode = schedule_[index];
  const double fraction =
      std::min(1.0, options_.drop_fraction_per_intensity * episode.intensity);
  const int64_t page = os::kPageSize;
  const int64_t total_pages = std::max<int64_t>(1, options_.file_size / page);
  const auto pages_to_drop =
      static_cast<int64_t>(static_cast<double>(total_pages) * fraction);
  // Drop contiguous chunks (the balloon reclaims runs of pages), remember
  // them, and swap them back in after the pressure releases.
  std::vector<std::pair<int64_t, int64_t>> dropped;  // (offset, len)
  constexpr int64_t kChunkPages = 256;
  for (int64_t remaining = pages_to_drop; remaining > 0; remaining -= kChunkPages) {
    const int64_t len_pages = std::min<int64_t>(kChunkPages, remaining);
    const int64_t start_page = rng_.UniformInt(0, total_pages - len_pages);
    os_->cache().EvictRange(options_.file, start_page * page, len_pages * page);
    dropped.emplace_back(start_page * page, len_pages * page);
  }
  if (options_.restore) {
    sim_->ScheduleDaemon(
        episode.duration + kCacheRestoreDelay, [this, dropped = std::move(dropped)] {
          for (const auto& [offset, len] : dropped) {
            os_->Prefault(options_.file, offset, len);
          }
        });
  }
}

}  // namespace mitt::noise
