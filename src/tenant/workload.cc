#include "src/tenant/workload.h"

#include <algorithm>

namespace mitt::tenant {

TenantArrivalCursor::TenantArrivalCursor(const TenantDirectory* directory, TimeNs end,
                                         int shard, int num_shards, uint64_t seed)
    : directory_(directory),
      end_(end),
      rng_(seed ^ (0xA5A5'0000ULL + static_cast<uint64_t>(shard))) {
  const uint32_t n = directory->num_tenants();
  const uint32_t stride = num_shards > 1 ? static_cast<uint32_t>(num_shards) : 1;
  for (TenantId t = 0; t < n; ++t) {
    if (stride > 1 && static_cast<int>(t % stride) != shard) {
      continue;
    }
    const double rate = directory->spec(t).rate_hz;
    if (rate <= 0) {
      continue;
    }
    owned_.push_back(t);
    total_rate_hz_ += rate;
    rate_prefix_.push_back(total_rate_hz_);
  }
  done_ = owned_.empty();
}

bool TenantArrivalCursor::Next(trace::TraceEvent* out) {
  if (done_) {
    return false;
  }
  // Next arrival of the merged (superposed) tenant processes: exponential at
  // the combined rate, then a rate-weighted tenant draw. Statistically
  // identical to per-tenant Poisson processes, but one stream instead of
  // thousands.
  const double gap_s = rng_.Exponential(1.0 / total_rate_hz_);
  at_ += static_cast<TimeNs>(gap_s * 1e9);
  if (at_ >= end_) {
    done_ = true;
    return false;
  }
  const double draw = rng_.NextDouble() * total_rate_hz_;
  const size_t idx = static_cast<size_t>(
      std::lower_bound(rate_prefix_.begin(), rate_prefix_.end(), draw) - rate_prefix_.begin());
  const TenantId t = owned_[idx < owned_.size() ? idx : owned_.size() - 1];
  const TenantSpec& spec = directory_->spec(t);
  const uint64_t key =
      spec.key_base +
      (spec.key_span > 1
           ? static_cast<uint64_t>(rng_.UniformInt(0, static_cast<int64_t>(spec.key_span) - 1))
           : 0);
  *out = trace::TraceEvent{.at = at_,
                           .offset = static_cast<int64_t>(key) << 12,
                           .len = 4096,
                           .op = trace::kOpRead,
                           .stream = t};
  return true;
}

}  // namespace mitt::tenant
