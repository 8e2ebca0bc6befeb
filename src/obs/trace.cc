#include "src/obs/trace.h"

#include <algorithm>

namespace mitt::obs {

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSyscall:
      return "syscall";
    case SpanKind::kCacheLookup:
      return "cache_lookup";
    case SpanKind::kPredict:
      return "predict";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kDeviceService:
      return "device_service";
    case SpanKind::kEbusyReject:
      return "ebusy_reject";
    case SpanKind::kFailover:
      return "failover";
    case SpanKind::kFaultActive:
      return "fault_active";
    case SpanKind::kBreakerOpen:
      return "resilience.breaker_open";
    case SpanKind::kBreakerHalfOpen:
      return "resilience.breaker_half_open";
    case SpanKind::kBreakerClose:
      return "resilience.breaker_close";
    case SpanKind::kDegradedGet:
      return "resilience.degraded_get";
    case SpanKind::kShed:
      return "resilience.shed";
    case SpanKind::kBackoff:
      return "resilience.backoff";
  }
  return "?";
}

Tracer::Tracer(size_t capacity) { ring_.resize(capacity == 0 ? 1 : capacity); }

void Tracer::RecordSpan(SpanKind kind, const TraceContext& ctx, TimeNs begin, TimeNs end) {
  if (!enabled_) {
    return;
  }
  SpanRecord& slot = ring_[head_];
  slot.request_id = ctx.id;
  slot.begin = begin;
  slot.end = end;
  slot.node = ctx.node;
  slot.kind = kind;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (size_ < ring_.size()) {
    ++size_;
  }
  ++recorded_;
}

std::vector<SpanRecord> Tracer::OrderedSpans() const {
  std::vector<SpanRecord> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the ring has wrapped, at 0 before.
  const size_t start = size_ == ring_.size() ? head_ : 0;
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void Tracer::Clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
}

std::vector<SpanRecord> MergeShardSpans(const std::vector<const Tracer*>& shard_tracers) {
  if (shard_tracers.size() == 1) {
    return shard_tracers[0]->OrderedSpans();  // Nothing to merge: keep record order.
  }
  std::vector<SpanRecord> merged;
  size_t total = 0;
  for (const Tracer* tracer : shard_tracers) {
    total += tracer->size();
  }
  merged.reserve(total);
  for (const Tracer* tracer : shard_tracers) {
    const std::vector<SpanRecord> spans = tracer->OrderedSpans();
    merged.insert(merged.end(), spans.begin(), spans.end());
  }
  std::stable_sort(merged.begin(), merged.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.begin != b.begin) {
      return a.begin < b.begin;
    }
    return a.end < b.end;
  });
  return merged;
}

}  // namespace mitt::obs
