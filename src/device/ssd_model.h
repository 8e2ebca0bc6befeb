// Host-managed (OpenChannel-style) SSD model (§4.3).
//
// The device exposes its full internal topology to the host: `num_channels`
// channels, each with `chips_per_channel` NAND chips. Logical pages are
// striped round-robin across chips. Every chip is a FIFO server for media
// operations (read / program / erase); every channel is a FIFO server for
// page transfers. A page read costs ~40 us of chip time plus a 60 us channel
// transfer (100 us end-to-end when uncontended, matching the paper's
// OpenChannel SSD). Program time depends on whether the page maps to the
// lower or upper bits of its MLC cell: the per-block pattern is the paper's
// "11111121121122...2112" (1 = 1 ms, 2 = 2 ms). Erases cost 6 ms.
//
// Large IOs are chopped into per-page sub-IOs (a >16 KB read to a chip "is
// automatically chopped to individual page reads"); the parent completes when
// the last sub-IO does.

#ifndef MITTOS_DEVICE_SSD_MODEL_H_
#define MITTOS_DEVICE_SSD_MODEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/ring_queue.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sched/io_request.h"
#include "src/sim/simulator.h"

namespace mitt::device {

struct SsdParams {
  int num_channels = 16;
  int chips_per_channel = 8;  // 128 chips total, as in the paper's device.
  int64_t page_size = 16 * 1024;
  int pages_per_block = 512;

  DurationNs chip_read = Micros(40);      // Media read (cell -> chip buffer).
  DurationNs channel_xfer = Micros(60);   // Page transfer over the channel.
  DurationNs program_fast = Millis(1);    // Lower-page program.
  DurationNs program_slow = Millis(2);    // Upper-page program.
  DurationNs erase = Millis(6);

  double jitter = 0.01;  // Multiplicative media-time jitter.
};

class SsdModel {
 public:
  SsdModel(sim::Simulator* sim, const SsdParams& params, uint64_t seed);

  SsdModel(const SsdModel&) = delete;
  SsdModel& operator=(const SsdModel&) = delete;

  // Chips never refuse work (they queue internally); the predictor's job is
  // exactly to know when that queue is too deep.
  void Submit(sched::IoRequest* req);

  void set_completion_listener(std::function<void(sched::IoRequest*)> listener) {
    listener_ = std::move(listener);
  }

  // --- White-box topology (available to the host under LightNVM) ---
  int num_chips() const { return params_.num_channels * params_.chips_per_channel; }
  int ChipOfPage(int64_t logical_page) const {
    return static_cast<int>(logical_page % num_chips());
  }
  int ChannelOfChip(int chip) const { return chip % params_.num_channels; }
  int64_t PageOfOffset(int64_t offset) const { return offset / params_.page_size; }
  // True program time class of a page within its block (1 = fast, 2 = slow).
  bool IsSlowPage(int64_t logical_page) const;

  const SsdParams& params() const { return params_; }

  // --- Read-retry storm injection (src/fault/) ---
  // Media reads on `chip` take `m`x their profiled time (firmware re-reading
  // a marginal page with shifted reference voltages). Applied at media start,
  // chip-local — programs, erases, and other chips are unaffected, and the
  // MittSSD predictor's shadow model keeps assuming the healthy read time.
  void set_chip_read_multiplier(int chip, double m) {
    chips_[static_cast<size_t>(chip)].read_multiplier = m;
  }

  uint64_t completed_count() const { return completed_; }

 private:
  struct SubIo {
    sched::IoRequest* parent = nullptr;
    int64_t logical_page = 0;
    sched::IoOp op = sched::IoOp::kRead;
  };

  struct Chip {
    RingQueue<SubIo> queue;
    bool busy = false;
    double read_multiplier = 1.0;  // Fail-slow media (read-retry storms).
  };

  struct Channel {
    RingQueue<SubIo> queue;
    bool busy = false;
  };

  void EnqueueChip(int chip, SubIo sub);
  void StartChip(int chip);
  void OnMediaDone(int chip, SubIo sub);
  void EnqueueChannel(int channel, SubIo sub);
  void StartChannel(int channel);
  void OnTransferDone(int channel, SubIo sub);
  void FinishSub(const SubIo& sub);

  DurationNs MediaTime(const SubIo& sub);

  sim::Simulator* sim_;
  SsdParams params_;
  Rng rng_;
  std::function<void(sched::IoRequest*)> listener_;

  std::vector<Chip> chips_;
  std::vector<Channel> channels_;

  // Outstanding sub-IO counts live on the parent (IoRequest::subs_remaining).
  uint64_t completed_ = 0;
};

}  // namespace mitt::device

#endif  // MITTOS_DEVICE_SSD_MODEL_H_
