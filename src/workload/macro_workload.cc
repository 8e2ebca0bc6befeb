#include "src/workload/macro_workload.h"

#include <algorithm>

namespace mitt::workload {
namespace {

constexpr int64_t kHadoopChunk = 1 << 20;  // One sequential scan read.

}  // namespace

std::string_view MacroProfileName(MacroProfile profile) {
  switch (profile) {
    case MacroProfile::kFileserver:
      return "fileserver";
    case MacroProfile::kVarmail:
      return "varmail";
    case MacroProfile::kWebserver:
      return "webserver";
    case MacroProfile::kHadoop:
      return "hadoop";
  }
  return "unknown";
}

MacroWorkload::MacroWorkload(sim::Simulator* sim, os::Os* target_os, uint64_t file,
                             int64_t file_size, const Options& options, uint64_t seed)
    : sim_(sim), os_(target_os), file_(file), file_size_(file_size), options_(options),
      rng_(seed) {}

void MacroWorkload::Start(TimeNs until) {
  for (int t = 0; t < options_.threads; ++t) {
    if (options_.profile == MacroProfile::kHadoop) {
      HadoopThread* thread = &hadoop_threads_.emplace_back();
      thread->until = until;
      // Stagger job arrivals.
      sim_->Schedule(static_cast<DurationNs>(rng_.Exponential(static_cast<double>(Seconds(2)))),
                     [this, thread] { HadoopJobLoop(thread); });
    } else {
      sim_->Schedule(rng_.UniformInt(0, Millis(5)), [this, until] { ThreadLoop(until); });
    }
  }
}

void MacroWorkload::ThreadLoop(TimeNs until) {
  if (sim_->Now() >= until) {
    return;
  }
  IssueOne(until);
}

void MacroWorkload::IssueOne(TimeNs until) {
  ++ios_issued_;
  double think_mean = 0;
  bool is_read = true;
  bool sync_write = false;
  int64_t size = 4096;

  switch (options_.profile) {
    case MacroProfile::kFileserver:
      is_read = rng_.Bernoulli(0.5);
      size = rng_.Bernoulli(0.4) ? (1 << 20) : (64 << 10);
      sync_write = rng_.Bernoulli(0.1);
      think_mean = static_cast<double>(Millis(5));
      break;
    case MacroProfile::kVarmail:
      is_read = rng_.Bernoulli(0.5);
      size = rng_.Bernoulli(0.5) ? 4096 : (16 << 10);
      sync_write = true;  // fsync-per-mail behaviour.
      think_mean = static_cast<double>(Millis(3));
      break;
    case MacroProfile::kWebserver:
      is_read = rng_.Bernoulli(0.95);
      size = rng_.Bernoulli(0.7) ? (8 << 10) : (64 << 10);
      think_mean = static_cast<double>(kMillisecond);
      break;
    case MacroProfile::kHadoop:
      break;  // Handled by HadoopJobLoop.
  }

  auto next = [this, until, think_mean](Status, DurationNs) {
    const auto think = static_cast<DurationNs>(rng_.Exponential(think_mean));
    sim_->Schedule(think, [this, until] { ThreadLoop(until); });
  };

  const int64_t offset = rng_.UniformInt(0, std::max<int64_t>(1, file_size_ - size - 1));
  if (is_read) {
    os::Os::ReadArgs args;
    args.file = file_;
    args.offset = offset;
    args.size = size;
    args.pid = options_.pid;
    args.io_class = options_.io_class;
    args.priority = options_.priority;
    args.bypass_cache = true;
    os_->ReadWithWaitHint(args, next);
  } else {
    os::Os::WriteArgs args;
    args.file = file_;
    args.offset = offset;
    args.size = size;
    args.pid = options_.pid;
    args.io_class = options_.io_class;
    args.priority = options_.priority;
    args.sync = sync_write;
    os_->Write(args, next);
  }
}

void MacroWorkload::HadoopJobLoop(HadoopThread* thread) {
  if (sim_->Now() >= thread->until) {
    return;
  }
  // One map-task scan: a burst of large sequential reads (FB-2010 jobs are
  // dominated by small jobs with heavy-tailed large scans).
  thread->chunks = rng_.Bernoulli(0.8) ? static_cast<int>(rng_.UniformInt(4, 16))
                                       : static_cast<int>(rng_.UniformInt(64, 192));
  thread->start =
      rng_.UniformInt(0, std::max<int64_t>(1, file_size_ - thread->chunks * kHadoopChunk - 1));
  thread->next_chunk = 0;
  HadoopScanStep(thread);
}

void MacroWorkload::HadoopScanStep(HadoopThread* thread) {
  if (thread->next_chunk >= thread->chunks || sim_->Now() >= thread->until) {
    // Job done; next job after a heavy-tailed gap.
    const auto gap = static_cast<DurationNs>(rng_.BoundedPareto(
        static_cast<double>(Millis(500)), static_cast<double>(Seconds(20)), 1.2));
    sim_->Schedule(gap, [this, thread] { HadoopJobLoop(thread); });
    return;
  }
  ++ios_issued_;
  os::Os::ReadArgs args;
  args.file = file_;
  args.offset = thread->start + static_cast<int64_t>(thread->next_chunk++) * kHadoopChunk;
  args.size = kHadoopChunk;
  args.pid = options_.pid;
  args.io_class = options_.io_class;
  args.priority = options_.priority;
  args.bypass_cache = true;
  os_->ReadWithWaitHint(args, [this, thread](Status, DurationNs) { HadoopScanStep(thread); });
}

}  // namespace mitt::workload
