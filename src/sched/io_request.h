// The IO descriptor that flows through the whole storage stack:
// OS syscall layer -> IO scheduler -> device queue -> completion.
//
// MittOS-specific fields carry the SLO (deadline), the prediction metadata
// used for calibration (§4.1: attach predicted processing time to the IO
// descriptor, measure the diff on completion), and the accuracy-accounting
// flag used by §7.6 (EBUSY flagged on the descriptor instead of returned).
//
// The descriptor also embeds the per-layer bookkeeping that used to live in
// side tables keyed by request id/pointer (hash lookups and node allocations
// on every IO): the OS completion callback, the SSD sub-IO countdown, the
// MittCFQ tolerance-wheel links, and the slot-arena bookkeeping
// (src/common/slot_pool.h). Requests remain plain default-constructible structs,
// so tests and baseline predictors can still stack- or heap-allocate them
// directly; the pool fields are simply unused then.

#ifndef MITTOS_SCHED_IO_REQUEST_H_
#define MITTOS_SCHED_IO_REQUEST_H_

#include <cstdint>

#include "src/common/inline_function.h"
#include "src/common/slot_pool.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/trace.h"

namespace mitt::sched {

enum class IoOp : uint8_t { kRead, kWrite, kErase };

// CFQ service classes, mirroring Linux ioprio classes (§4.2).
enum class IoClass : uint8_t { kRealTime = 0, kBestEffort = 1, kIdle = 2 };

// No SLO attached; the IO must never be rejected.
constexpr DurationNs kNoDeadline = -1;

struct IoRequest;

// Completion callback. `req` is valid only for the duration of the call.
// Move-only with 48 bytes of inline capture (InlineFunction): the pipeline's
// own callbacks capture a single `this`, so assigning one never allocates.
// Completion sites move the callback out of the descriptor before invoking
// it, which lets the callback release the descriptor back to its pool.
using IoCompletionFn = InlineFunction<void(const IoRequest& req, Status status)>;

// End-of-syscall delivery to the caller of Os::Read/ReadWithWaitHint/Write:
// status plus the predictor's wait estimate (§7.8.1 EBUSY-with-wait-time).
// Carried on the descriptor itself rather than nested inside on_complete so
// no closure ever outgrows the inline buffer.
using IoDoneFn = InlineFunction<void(Status status, DurationNs predicted_wait)>;

struct IoRequest {
  uint64_t id = 0;

  IoOp op = IoOp::kRead;
  int64_t offset = 0;  // Byte offset on the device.
  int64_t size = 0;    // Bytes.

  // Submitting process and its CFQ scheduling parameters.
  int32_t pid = 0;
  IoClass io_class = IoClass::kBestEffort;
  int8_t priority = 4;  // 0 (highest) .. 7 (lowest) within the class.

  // --- MittOS SLO ---
  DurationNs deadline = kNoDeadline;

  // --- Observability (src/obs/) ---
  // The originating client request (id 0 for noise/background IOs) plus the
  // node label; schedulers and devices record queue_wait / device_service /
  // predict spans and per-node metrics against it.
  obs::TraceContext trace;

  // --- Lifecycle timestamps (simulated time) ---
  TimeNs submit_time = 0;    // When the syscall entered the scheduler.
  TimeNs dispatch_time = 0;  // When the device started holding it.

  // --- Prediction metadata (§4.1 "attach T_processNewIO ... to the IO
  //     descriptor", §7.6 accuracy accounting) ---
  DurationNs predicted_wait = 0;     // Predictor's wait estimate at submit.
  DurationNs predicted_process = 0;  // Predictor's service-time estimate.
  bool ebusy_flagged = false;        // Accuracy mode: would have been rejected.

  // --- Os syscall-layer context (src/os/os.cc) ---
  uint64_t file = 0;        // Originating file handle (0: kernel-internal).
  int64_t file_offset = 0;  // Offset within `file` (device offset minus base).
  bool fill_cache = false;  // Populate the page cache on completion.

  // --- SSD bookkeeping (device sub-IO fan-out, predictor shadow) ---
  int32_t subs_remaining = 0;  // Sub-IOs still in flight (SsdModel).
  bool ssd_tracked = false;    // MittSSD shadow accounting covers this IO.

  // --- MittCFQ tolerance-wheel intrusive links (src/os/mitt_cfq.h) ---
  IoRequest* tol_prev = nullptr;
  IoRequest* tol_next = nullptr;
  int64_t tol_bucket = 0;
  bool in_tolerance = false;

  // --- Slot-arena bookkeeping (src/common/slot_pool.h) ---
  uint32_t pool_slot = 0;
  uint32_t pool_epoch = 0;

  IoCompletionFn on_complete;

  // End-of-syscall delivery, fired by the Os layer after on_complete's
  // bookkeeping; null for kernel-internal IOs (destages, GC, prefetch).
  IoDoneFn done;

  bool has_deadline() const { return deadline != kNoDeadline; }
};

// Pooled descriptors. Owners: Os (syscall-layer descriptors), DiskModel
// (NVRAM destages), SsdGc (garbage-collection IOs).
using IoRequestPool = SlotPool<IoRequest>;

}  // namespace mitt::sched

#endif  // MITTOS_SCHED_IO_REQUEST_H_
