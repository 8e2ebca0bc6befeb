// The MittOS syscall surface for one machine: a page cache on top of an IO
// scheduler on top of a disk or SSD, with the Mitt* admission predictors
// wired in (§3.2, §4).
//
// The interface mirrors the paper's additions to Linux:
//   * ReadWithWaitHint(..., deadline) -> data later, or EBUSY (possibly
//     immediately) with the predicted wait;
//   * AddrCheck(..., deadline) -> synchronous residency probe for mmap-ed
//     regions (82 ns), with background swap-in after an EBUSY;
//   * Write(...)           -> buffered by default (user-facing write
//     latencies are not affected by drive contention, §7.8.6).
//
// Vanilla-Linux behaviour (the "Base" lines in every figure) is the same Os
// with `mitt_enabled = false`: deadlines are ignored, nothing is rejected.

#ifndef MITTOS_OS_OS_H_
#define MITTOS_OS_OS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/device/disk_model.h"
#include "src/device/disk_profile.h"
#include "src/device/ssd_model.h"
#include "src/device/ssd_profile.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/mitt_cfq.h"
#include "src/os/mitt_noop.h"
#include "src/os/mitt_ssd.h"
#include "src/os/page_cache.h"
#include "src/sched/cfq_scheduler.h"
#include "src/sched/io_request.h"
#include "src/sched/noop_scheduler.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulator.h"

namespace mitt::os {

enum class BackendKind {
  kDiskNoop,  // noop scheduler + disk (MittNoop, §4.1)
  kDiskCfq,   // CFQ scheduler + disk (MittCFQ, §4.2)
  kSsd,       // noop-style block layer + OpenChannel SSD (MittSSD, §4.3)
};

// Period of the background flush of buffered writes.
inline constexpr DurationNs kFlushInterval = Millis(500);

struct OsOptions {
  BackendKind backend = BackendKind::kDiskCfq;
  bool mitt_enabled = true;

  device::DiskParams disk;
  device::SsdParams ssd;
  sched::CfqParams cfq;
  PageCacheParams cache;

  PredictorOptions predictor;
  MittCfqOptions mitt_cfq;
  MittSsdOptions mitt_ssd;

  // Node label stamped on spans and metrics this machine emits (src/obs/);
  // -1 for single-machine setups.
  int node_label = -1;

  uint64_t seed = 1;
};

class Os {
 public:
  Os(sim::Simulator* sim, const OsOptions& options);
  ~Os();

  Os(const Os&) = delete;
  Os& operator=(const Os&) = delete;

  // --- Files (contiguous regions of the backing device) ---
  // A file occupies a 64 MB-aligned region: the lowest region a deleted file
  // freed that is large enough, else fresh space past every region
  // allocated so far.
  uint64_t CreateFile(int64_t size_bytes);
  int64_t FileBase(uint64_t file) const;
  // Frees the file's region for reuse and drops its cached pages and its
  // unflushed buffered writes. IO already in flight completes, but fills no
  // cache pages. The file id is never handed out again.
  void DeleteFile(uint64_t file);

  // --- Read syscall with SLO (§3.2) ---
  struct ReadArgs {
    uint64_t file = 0;
    int64_t offset = 0;
    int64_t size = 4096;
    DurationNs deadline = sched::kNoDeadline;
    int32_t pid = 0;
    sched::IoClass io_class = sched::IoClass::kBestEffort;
    int8_t priority = 4;
    bool bypass_cache = false;  // O_DIRECT-style; used by noise tenants.
    obs::TraceContext trace;    // Originating client request (id 0: untraced).
  };
  // The read syscall. Its EBUSY carries the predictor's wait estimate, the
  // §7.8.1 / §8.1 extension, so the application can route to the least-busy
  // replica when every replica rejects ("extending the MittOS interface to
  // return the expected wait time, with which MongoDB can choose the
  // shortest wait time when all replicas return EBUSY"). Move-only; captures
  // up to 48 bytes without allocating (InlineFunction). `done` may be null.
  using RichReadFn = sched::IoDoneFn;
  void ReadWithWaitHint(const ReadArgs& args, RichReadFn done);

  // --- Write syscall: buffered by default, sync hits the device ---
  struct WriteArgs {
    uint64_t file = 0;
    int64_t offset = 0;
    int64_t size = 4096;
    int32_t pid = 0;
    sched::IoClass io_class = sched::IoClass::kBestEffort;
    int8_t priority = 4;
    bool sync = false;
  };
  // `done` reports wait hint 0 and may be null.
  void Write(const WriteArgs& args, sched::IoDoneFn done);

  // --- AddrCheck syscall (§4.4): synchronous page-table probe ---
  struct AddrCheckResult {
    Status status;
    DurationNs cost;  // Simulated syscall cost the caller must account for.
  };
  AddrCheckResult AddrCheck(uint64_t file, int64_t offset, int64_t size, DurationNs deadline,
                            const obs::TraceContext& trace = {});

  // mmap-ed access without AddrCheck: page faults block (vanilla MongoDB).
  // The hint is always 0: a fault cannot be rejected. The unary overload
  // serves perfbench, its only non-test caller.
  void MmapAccess(uint64_t file, int64_t offset, int64_t size, int32_t pid, RichReadFn done);
  void MmapAccess(uint64_t file, int64_t offset, int64_t size, int32_t pid,
                  std::function<void(Status)> done);

  // --- Setup / noise helpers ---
  void Prefault(uint64_t file, int64_t offset, int64_t size);  // Warm the cache.
  void DropCachedFraction(double fraction);                    // Memory contention.

  PageCache& cache() { return *cache_; }
  sched::IoScheduler& scheduler() { return *scheduler_; }
  device::DiskModel* disk() { return disk_.get(); }
  device::SsdModel* ssd() { return ssd_.get(); }
  MittNoopPredictor* mitt_noop() { return mitt_noop_.get(); }
  MittCfqPredictor* mitt_cfq() { return mitt_cfq_.get(); }
  MittSsdPredictor* mitt_ssd() { return mitt_ssd_.get(); }
  const device::DiskProfile& disk_profile() const { return disk_profile_; }
  const device::SsdProfile& ssd_profile() const { return ssd_profile_; }
  const OsOptions& options() const { return options_; }

  // Smallest possible device IO latency; an SLO below this on a cache miss is
  // rejected immediately (§4.4).
  DurationNs MinDeviceLatency() const;

 private:
  void SubmitDeviceRead(uint64_t file, int64_t offset, int64_t size, DurationNs deadline,
                        int32_t pid, sched::IoClass io_class, int8_t priority, bool fill_cache,
                        obs::TraceContext trace, RichReadFn done);
  void SubmitDeviceWrite(const WriteArgs& args, sched::IoDoneFn done);
  // Scheduler completion for a device read/write: page-cache fill, syscall
  // accounting, and the return-path delivery event. The descriptor stays
  // alive (carrying the caller's `done`) until that event fires.
  void ReadComplete(sched::IoRequest* req, Status status);
  void WriteComplete(sched::IoRequest* req, Status status);
  // Answers a syscall that needs no device IO (a cache or mmap hit, the
  // device-floor EBUSY, a buffered-write ack) after `delay`. A pooled
  // descriptor carries `done` to the delivery event, since `done` (64 bytes)
  // would overflow the event's inline capture. A null `done` still
  // schedules an (empty) event: event sequence numbers feed tie-breaking, so
  // the event count must not depend on the callback.
  void ReplyAfter(DurationNs delay, Status status, DurationNs hint, RichReadFn done);
  // Delivers `status` and `hint` to req->done after `delay`. The descriptor
  // is released before the callback runs, so the callback can issue a new IO
  // that reuses the slot.
  void Deliver(sched::IoRequest* req, DurationNs delay, Status status, DurationNs hint);

  // Records the syscall-level span/counters for one finished read attempt.
  // `end` is the simulated instant the result reaches the caller; it may lie
  // (deterministically) in the future of the recording instant.
  void TraceReadDone(const obs::TraceContext& trace, TimeNs begin, TimeNs end, DurationNs deadline,
                     Status status);
  void FlushTick();
  sched::IoRequest* NewRequest();

  sim::Simulator* sim_;
  OsOptions options_;
  Rng rng_;

  // Cached obs metric handles (null when no registry is attached to the
  // simulator at construction time; map references are stable).
  obs::Counter* ebusy_total_ = nullptr;
  obs::Counter* cache_hit_total_ = nullptr;
  obs::Counter* cache_miss_total_ = nullptr;
  obs::Counter* deadline_hit_total_ = nullptr;
  obs::Counter* deadline_miss_total_ = nullptr;

  std::unique_ptr<device::DiskModel> disk_;
  std::unique_ptr<device::SsdModel> ssd_;
  device::DiskProfile disk_profile_;
  device::SsdProfile ssd_profile_;
  std::unique_ptr<MittNoopPredictor> mitt_noop_;
  std::unique_ptr<MittCfqPredictor> mitt_cfq_;
  std::unique_ptr<MittSsdPredictor> mitt_ssd_;
  std::unique_ptr<sched::IoScheduler> scheduler_;
  std::unique_ptr<PageCache> cache_;

  struct FileRegion {
    int64_t base = 0;
    int64_t bytes = 0;  // Aligned extent.
    bool deleted = false;
  };
  // File ids are handed out sequentially from 1; index = file id.
  // files_[0] is a sentinel for unknown handles.
  std::vector<FileRegion> files_{FileRegion{}};
  // Regions of deleted files, sorted by base.
  std::vector<FileRegion> free_regions_;
  int64_t next_alloc_ = 0;
  uint64_t next_io_ = 1;

  // Slot arena for every in-flight IO descriptor this Os owns (device reads
  // and writes, plus hit/floor-path descriptors that only carry `done` to the
  // delivery event).
  sched::IoRequestPool pool_;

  struct DirtyRange {
    uint64_t file;
    int64_t offset;
    int64_t size;
  };
  std::vector<DirtyRange> dirty_;
  std::vector<DirtyRange> flush_batch_;  // Reused swap target for FlushTick.
  sim::EventId flush_event_ = sim::kInvalidEventId;
};

}  // namespace mitt::os

#endif  // MITTOS_OS_OS_H_
