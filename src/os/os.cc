#include "src/os/os.h"

#include <algorithm>
#include <utility>

namespace mitt::os {
namespace {

constexpr int64_t kAllocAlignment = 64LL * 1024 * 1024;

// Syscall-path costs. Making a system call and receiving EBUSY takes <5 us
// (§3.3); AddrCheck costs 82 ns (§4.4); a buffer-cache hit is tens of us
// end-to-end.
constexpr DurationNs kSyscallOverhead = Micros(2);
constexpr DurationNs kHitLatency = Micros(15);
constexpr DurationNs kMmapAccessCost = kMicrosecond;
constexpr DurationNs kAddrCheckCost = 82;

int64_t AlignUp(int64_t v, int64_t a) { return (v + a - 1) / a * a; }

}  // namespace

Os::Os(sim::Simulator* sim, const OsOptions& options)
    : sim_(sim), options_(options), rng_(options.seed) {
  switch (options_.backend) {
    case BackendKind::kDiskNoop:
    case BackendKind::kDiskCfq: {
      disk_ = std::make_unique<device::DiskModel>(sim_, options_.disk, rng_.Next());
      // Profile an identical twin device on a scratch simulator so the boot
      // profile does not perturb this machine's state (the paper's profiling
      // is a one-time offline pass).
      if (options_.mitt_enabled) {
        sim::Simulator scratch;
        device::DiskModel twin(&scratch, options_.disk, options_.seed ^ 0x5eedf00d);
        disk_profile_ = ProfileDisk(&scratch, &twin);
      }
      if (options_.backend == BackendKind::kDiskNoop) {
        if (options_.mitt_enabled) {
          mitt_noop_ =
              std::make_unique<MittNoopPredictor>(sim_, disk_profile_, options_.predictor);
        }
        scheduler_ = std::make_unique<sched::NoopScheduler>(sim_, disk_.get(), mitt_noop_.get());
      } else {
        if (options_.mitt_enabled) {
          mitt_cfq_ = std::make_unique<MittCfqPredictor>(sim_, disk_profile_, options_.predictor,
                                                         options_.mitt_cfq);
        }
        scheduler_ = std::make_unique<sched::CfqScheduler>(sim_, disk_.get(), mitt_cfq_.get(),
                                                           options_.cfq);
      }
      break;
    }
    case BackendKind::kSsd: {
      ssd_ = std::make_unique<device::SsdModel>(sim_, options_.ssd, rng_.Next());
      if (options_.mitt_enabled) {
        sim::Simulator scratch;
        device::SsdModel twin(&scratch, options_.ssd, options_.seed ^ 0x5eedf00d);
        ssd_profile_ = ProfileSsd(&scratch, &twin);
        mitt_ssd_ = std::make_unique<MittSsdPredictor>(sim_, ssd_.get(), ssd_profile_,
                                                       options_.predictor, options_.mitt_ssd);
      }
      scheduler_ = std::make_unique<SsdBlockLayer>(sim_, ssd_.get(), mitt_ssd_.get());
      break;
    }
  }
  cache_ = std::make_unique<PageCache>(options_.cache);
  flush_event_ = sim_->ScheduleDaemon(kFlushInterval, [this] { FlushTick(); });

  if (obs::MetricsRegistry* mx = sim_->metrics()) {
    const int node = options_.node_label;
    ebusy_total_ = &mx->counter("ebusy_total", node);
    cache_hit_total_ = &mx->counter("cache_hit_total", node);
    cache_miss_total_ = &mx->counter("cache_miss_total", node);
    deadline_hit_total_ = &mx->counter("deadline_hit_total", node);
    deadline_miss_total_ = &mx->counter("deadline_miss_total", node);
  }
}

Os::~Os() { sim_->Cancel(flush_event_); }

uint64_t Os::CreateFile(int64_t size_bytes) {
  const int64_t bytes = AlignUp(size_bytes, kAllocAlignment);
  const auto fit = std::find_if(free_regions_.begin(), free_regions_.end(),
                                [bytes](const FileRegion& r) { return r.bytes >= bytes; });
  if (fit == free_regions_.end()) {
    files_.push_back({next_alloc_, bytes});
    next_alloc_ += bytes;
  } else {
    files_.push_back(*fit);  // The file takes the whole freed region.
    free_regions_.erase(fit);
  }
  return files_.size() - 1;
}

int64_t Os::FileBase(uint64_t file) const {
  return file < files_.size() ? files_[file].base : 0;
}

void Os::DeleteFile(uint64_t file) {
  if (file == 0 || file >= files_.size() || files_[file].deleted) {
    return;
  }
  FileRegion& f = files_[file];
  f.deleted = true;
  cache_->EvictRange(file, 0, f.bytes);
  std::erase_if(dirty_, [file](const DirtyRange& d) { return d.file == file; });
  free_regions_.insert(
      std::lower_bound(free_regions_.begin(), free_regions_.end(), f.base,
                       [](const FileRegion& r, int64_t base) { return r.base < base; }),
      FileRegion{f.base, f.bytes});
}

DurationNs Os::MinDeviceLatency() const {
  if (ssd_ != nullptr) {
    return options_.ssd.chip_read + options_.ssd.channel_xfer;
  }
  // Fastest possible disk IO: near-sequential settle plus transfer.
  return options_.disk.seek_base / 10 + options_.disk.transfer_per_kb * 4;
}

sched::IoRequest* Os::NewRequest() {
  sched::IoRequest* req = pool_.Acquire();
  req->id = next_io_++;
  return req;
}

void Os::TraceReadDone(const obs::TraceContext& trace, TimeNs begin, TimeNs end,
                       DurationNs deadline, Status status) {
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled() && trace.traced()) {
    tr->RecordSpan(obs::SpanKind::kSyscall, trace, begin, end);
    if (status.busy()) {
      tr->RecordInstant(obs::SpanKind::kEbusyReject, trace, end);
    }
  }
  if (status.busy()) {
    if (ebusy_total_ != nullptr) {
      ebusy_total_->Add();
    }
  } else if (deadline != sched::kNoDeadline) {
    obs::Counter* c = (end - begin) <= deadline ? deadline_hit_total_ : deadline_miss_total_;
    if (c != nullptr) {
      c->Add();
    }
  }
}

void Os::ReadWithWaitHint(const ReadArgs& orig_args, RichReadFn done) {
  ReadArgs args = orig_args;
  // Defensive underflow clamp: a negative deadline that is not exactly
  // kNoDeadline is client hop arithmetic gone wrong ("deadline - elapsed"
  // past zero). It must read as "no time left", not alias into "no SLO".
  if (args.deadline < 0 && args.deadline != sched::kNoDeadline) {
    args.deadline = 0;
  }
  obs::TraceContext trace = args.trace;
  trace.node = options_.node_label;
  const TimeNs t0 = sim_->Now();

  if (!args.bypass_cache) {
    if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled() && trace.traced()) {
      tr->RecordInstant(obs::SpanKind::kCacheLookup, trace, t0);
    }
    if (cache_->Touch(args.file, args.offset, args.size)) {
      if (cache_hit_total_ != nullptr) {
        cache_hit_total_->Add();
      }
      TraceReadDone(trace, t0, t0 + kHitLatency, args.deadline, Status::Ok());
      ReplyAfter(kHitLatency, Status::Ok(), 0, std::move(done));
      return;
    }
    if (cache_miss_total_ != nullptr) {
      cache_miss_total_->Add();
    }
  }

  const bool slo_active = options_.mitt_enabled && args.deadline != sched::kNoDeadline;
  if (slo_active && args.deadline < MinDeviceLatency()) {
    // §4.4: the user expected an in-memory read; the data is not resident and
    // no device IO can make the deadline. Reject without queueing anything.
    // The wait hint is the device floor: the soonest any retry here could
    // complete.
    TraceReadDone(trace, t0, t0 + kSyscallOverhead, args.deadline, Status::Ebusy());
    ReplyAfter(kSyscallOverhead, Status::Ebusy(), MinDeviceLatency(), std::move(done));
    return;
  }

  SubmitDeviceRead(args.file, args.offset, args.size,
                   options_.mitt_enabled ? args.deadline : sched::kNoDeadline, args.pid,
                   args.io_class, args.priority, !args.bypass_cache, trace, std::move(done));
}

void Os::SubmitDeviceRead(uint64_t file, int64_t offset, int64_t size, DurationNs deadline,
                          int32_t pid, sched::IoClass io_class, int8_t priority, bool fill_cache,
                          obs::TraceContext trace, RichReadFn done) {
  sched::IoRequest* req = NewRequest();
  req->op = sched::IoOp::kRead;
  req->file = file;
  req->file_offset = offset;
  req->fill_cache = fill_cache;
  req->offset = FileBase(file) + offset;
  req->size = size;
  req->pid = pid;
  req->io_class = io_class;
  req->priority = priority;
  req->deadline = deadline;
  trace.node = options_.node_label;
  req->trace = trace;
  req->done = std::move(done);
  req->on_complete = [this](const sched::IoRequest& r, Status status) {
    ReadComplete(const_cast<sched::IoRequest*>(&r), status);
  };
  scheduler_->Submit(req);
}

void Os::ReadComplete(sched::IoRequest* req, Status status) {
  // A file deleted while its read was in flight gets no cache pages.
  const bool deleted = req->file < files_.size() && files_[req->file].deleted;
  if (status.ok() && req->fill_cache && !deleted) {
    cache_->Insert(req->file, req->file_offset, req->size);
  }
  const DurationNs return_cost = status.busy() ? kSyscallOverhead : kSyscallOverhead / 2;
  if (req->trace.traced() || req->has_deadline()) {
    // submit_time == the syscall entry instant: submission into the
    // scheduler is synchronous.
    TraceReadDone(req->trace, req->submit_time, sim_->Now() + return_cost, req->deadline, status);
  }
  if (req->done) {
    Deliver(req, return_cost, status, req->predicted_wait);
  } else {
    pool_.Release(req);
  }
}

void Os::ReplyAfter(DurationNs delay, Status status, DurationNs hint, RichReadFn done) {
  if (!done) {
    sim_->Schedule(delay, [] {});
    return;
  }
  sched::IoRequest* req = pool_.Acquire();
  req->done = std::move(done);
  Deliver(req, delay, status, hint);
}

void Os::Deliver(sched::IoRequest* req, DurationNs delay, Status status, DurationNs hint) {
  sim_->Schedule(delay, [this, req, status, hint] {
    auto cb = std::move(req->done);
    pool_.Release(req);
    cb(status, hint);
  });
}

void Os::Write(const WriteArgs& args, sched::IoDoneFn done) {
  if (args.sync) {
    SubmitDeviceWrite(args, std::move(done));
    return;
  }
  // Buffered write: dirty the cache, acknowledge immediately, flush later
  // (§7.8.6: "writes are first buffered to memory and flushed in the
  // background, thus user-facing write latencies are not directly affected by
  // drive-level contention").
  cache_->Insert(args.file, args.offset, args.size);
  dirty_.push_back(DirtyRange{args.file, args.offset, args.size});
  ReplyAfter(kHitLatency, Status::Ok(), 0, std::move(done));
}

void Os::SubmitDeviceWrite(const WriteArgs& args, sched::IoDoneFn done) {
  sched::IoRequest* req = NewRequest();
  req->op = sched::IoOp::kWrite;
  req->offset = FileBase(args.file) + args.offset;
  req->size = args.size;
  req->pid = args.pid;
  req->io_class = args.io_class;
  req->priority = args.priority;
  req->trace.node = options_.node_label;  // Untraced, but labelled for metrics.
  req->done = std::move(done);
  req->on_complete = [this](const sched::IoRequest& r, Status status) {
    WriteComplete(const_cast<sched::IoRequest*>(&r), status);
  };
  scheduler_->Submit(req);
}

void Os::WriteComplete(sched::IoRequest* req, Status status) {
  if (req->done) {
    Deliver(req, kSyscallOverhead / 2, status, 0);
  } else {
    pool_.Release(req);
  }
}

void Os::FlushTick() {
  // Flush dirty ranges accumulated since the last tick as background
  // (kernel) writes with no deadline. The batch vector is a reused member:
  // swapping keeps both buffers' capacity across ticks. Without the reserve,
  // the capacities ping-pong between the two buffers and the smaller one
  // regrows every other tick.
  flush_batch_.clear();
  flush_batch_.swap(dirty_);
  if (dirty_.capacity() < flush_batch_.capacity()) {
    dirty_.reserve(flush_batch_.capacity());
  }
  for (const DirtyRange& d : flush_batch_) {
    WriteArgs args;
    args.file = d.file;
    args.offset = d.offset;
    args.size = d.size;
    args.pid = 0;  // kswapd/flusher.
    args.sync = true;
    SubmitDeviceWrite(args, nullptr);
  }
  flush_event_ = sim_->ScheduleDaemon(kFlushInterval, [this] { FlushTick(); });
}

Os::AddrCheckResult Os::AddrCheck(uint64_t file, int64_t offset, int64_t size, DurationNs deadline,
                                  const obs::TraceContext& trace) {
  const DurationNs cost = kAddrCheckCost;
  obs::TraceContext ctx = trace;
  ctx.node = options_.node_label;
  const TimeNs t0 = sim_->Now();
  obs::Tracer* tr = sim_->tracer();
  const bool record = tr != nullptr && tr->enabled() && ctx.traced();
  if (record) {
    tr->RecordInstant(obs::SpanKind::kCacheLookup, ctx, t0);
    tr->RecordSpan(obs::SpanKind::kSyscall, ctx, t0, t0 + cost);
  }
  if (cache_->Resident(file, offset, size)) {
    if (cache_hit_total_ != nullptr) {
      cache_hit_total_->Add();
    }
    return {Status::Ok(), cost};
  }
  if (cache_miss_total_ != nullptr) {
    cache_miss_total_->Add();
  }
  if (!options_.mitt_enabled) {
    return {Status::Ok(), cost};  // Vanilla kernel: no such syscall semantics.
  }
  // Not resident: predict whether a device fill could still meet the
  // deadline; propagate to the IO layer's estimate (§4.4).
  DurationNs predicted = MinDeviceLatency();
  if (mitt_cfq_ != nullptr) {
    predicted += mitt_cfq_->PredictedWaitNow(0, sched::IoClass::kBestEffort);
  } else if (mitt_noop_ != nullptr) {
    predicted += mitt_noop_->PredictedWaitNow();
  }
  if (deadline == sched::kNoDeadline || deadline >= predicted) {
    return {Status::Ok(), cost};
  }
  // EBUSY — but for fairness keep swapping the data in, in the background,
  // so this tenant's pages still get populated (§4.4).
  if (record) {
    tr->RecordInstant(obs::SpanKind::kEbusyReject, ctx, t0 + cost);
  }
  if (ebusy_total_ != nullptr) {
    ebusy_total_->Add();
  }
  SubmitDeviceRead(file, offset, size, sched::kNoDeadline, 0, sched::IoClass::kBestEffort, 7,
                   /*fill_cache=*/true, /*trace=*/{}, nullptr);
  return {Status::Ebusy(), cost};
}

void Os::MmapAccess(uint64_t file, int64_t offset, int64_t size, int32_t pid, RichReadFn done) {
  if (cache_->Touch(file, offset, size)) {
    ReplyAfter(kMmapAccessCost, Status::Ok(), 0, std::move(done));
    return;
  }
  // Page fault: a blocking device read with no deadline (no syscall is
  // involved, so the OS cannot signal EBUSY, §4.4).
  SubmitDeviceRead(file, offset, size, sched::kNoDeadline, pid, sched::IoClass::kBestEffort, 4,
                   /*fill_cache=*/true, /*trace=*/{}, std::move(done));
}

void Os::MmapAccess(uint64_t file, int64_t offset, int64_t size, int32_t pid,
                    std::function<void(Status)> done) {
  MmapAccess(file, offset, size, pid,
             RichReadFn([done = std::move(done)](Status s, DurationNs) { done(s); }));
}

void Os::Prefault(uint64_t file, int64_t offset, int64_t size) {
  cache_->Insert(file, offset, size);
}

void Os::DropCachedFraction(double fraction) { cache_->EvictFraction(fraction, rng_); }

}  // namespace mitt::os
