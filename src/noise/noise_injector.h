// Noise injectors: tenant processes that reproduce the paper's noisy
// neighbors (§7.1, §7.2).
//
//  * IoNoiseInjector keeps N concurrent IO streams against the node's OS for
//    the duration of each episode (disk noise: "two concurrent 1MB reads";
//    SSD noise: "a thread of 64KB writes").
//  * CacheNoiseInjector evicts a fraction of the OS cache at each episode
//    (memory-space contention / VM ballooning, §7.1, §7.4).

#ifndef MITTOS_NOISE_NOISE_INJECTOR_H_
#define MITTOS_NOISE_NOISE_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/noise/ec2_noise.h"
#include "src/os/os.h"
#include "src/sim/simulator.h"

namespace mitt::noise {

class IoNoiseInjector {
 public:
  struct Options {
    int64_t io_size = 1 << 20;          // 1 MB reads by default (§7.2).
    int streams_per_intensity = 2;      // Concurrent IOs per intensity unit.
    sched::IoOp op = sched::IoOp::kRead;
    int32_t pid = 9000;
    sched::IoClass io_class = sched::IoClass::kBestEffort;
    int8_t priority = 4;
  };

  // The injector issues IOs against `file` (size `file_size`) on `target_os`,
  // following `schedule`. Episodes are replayed exactly; within an episode
  // each stream issues back-to-back random IOs (closed loop). Throws
  // std::invalid_argument if an episode starts before the one ahead of it.
  IoNoiseInjector(sim::Simulator* sim, os::Os* target_os, uint64_t file, int64_t file_size,
                  std::vector<NoiseEpisode> schedule, const Options& options, uint64_t seed);

  // Queues the first episode; each episode queues the next as it begins, so
  // one event is pending whatever the schedule's length.
  void Start();

  // True while inside an episode: the injector's ground-truth busyness.
  bool noisy_now() const { return active_streams_ > 0; }
  uint64_t ios_issued() const { return ios_issued_; }
  uint64_t episodes_run() const { return episodes_run_; }

 private:
  void ScheduleEpisode(size_t index);
  void BeginEpisode(size_t index);
  void StreamLoop(TimeNs episode_end);

  sim::Simulator* sim_;
  os::Os* os_;
  uint64_t file_;
  int64_t file_size_;
  std::vector<NoiseEpisode> schedule_;
  Options options_;
  Rng rng_;
  int active_streams_ = 0;
  uint64_t ios_issued_ = 0;
  uint64_t episodes_run_ = 0;
};

// Memory-space contention: at each episode start, a neighbor's balloon
// steals memory and a fraction of `file`'s pages get swapped out; when the
// episode ends the pressure releases and the pages swap back in (the OS
// keeps swapping in the background, §4.4). Accesses *during* an episode see
// misses — the transient cache-miss bursts of Fig. 3c.
class CacheNoiseInjector {
 public:
  struct Options {
    uint64_t file = 0;
    int64_t file_size = 0;
    // Fraction of the file's pages dropped per intensity unit.
    double drop_fraction_per_intensity = 0.08;
    // Swap the dropped pages back in kCacheRestoreDelay after the episode.
    bool restore = true;
  };

  // Throws std::invalid_argument if an episode starts before the one ahead
  // of it.
  CacheNoiseInjector(sim::Simulator* sim, os::Os* target_os, std::vector<NoiseEpisode> schedule,
                     const Options& options, uint64_t seed);

  // Queues the first episode; each episode queues the next as it begins.
  void Start();

  uint64_t episodes_run() const { return episodes_run_; }

 private:
  void ScheduleEpisode(size_t index);
  void RunEpisode(size_t index);

  sim::Simulator* sim_;
  os::Os* os_;
  std::vector<NoiseEpisode> schedule_;
  Options options_;
  Rng rng_;
  uint64_t episodes_run_ = 0;
};

}  // namespace mitt::noise

#endif  // MITTOS_NOISE_NOISE_INJECTOR_H_
