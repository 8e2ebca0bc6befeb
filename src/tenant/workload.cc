#include "src/tenant/workload.h"

#include <algorithm>
#include <utility>

namespace mitt::tenant {

TenantLoadDriver::TenantLoadDriver(sim::Simulator* sim, const TenantDirectory* directory,
                                   const Options& options, DispatchFn dispatch)
    : sim_(sim),
      directory_(directory),
      options_(options),
      dispatch_(std::move(dispatch)),
      rng_(options.seed ^ (0xA5A5'0000ULL + static_cast<uint64_t>(options.shard))) {
  const uint32_t n = directory->num_tenants();
  const int num_shards = options_.num_shards > 1 ? options_.num_shards : 1;
  for (TenantId t = 0; t < n; ++t) {
    if (static_cast<int>(t % static_cast<uint32_t>(num_shards)) != options_.shard &&
        num_shards > 1) {
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
}

void TenantLoadDriver::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  if (owned_.empty() || total_rate_hz_ <= 0) {
    done_ = true;
    return;
  }
  PumpNext();
}

void TenantLoadDriver::PumpNext() {
  // Next arrival of the merged (superposed) tenant processes: exponential at
  // the combined rate, then a rate-weighted tenant draw. Statistically
  // identical to per-tenant Poisson processes, but one timer instead of
  // thousands.
  const double gap_s = rng_.Exponential(1.0 / total_rate_hz_);
  next_at_ += static_cast<TimeNs>(gap_s * 1e9);
  if (next_at_ >= options_.warmup + options_.duration) {
    done_ = true;
    return;
  }
  const double draw = rng_.NextDouble() * total_rate_hz_;
  const size_t idx = static_cast<size_t>(
      std::lower_bound(rate_prefix_.begin(), rate_prefix_.end(), draw) - rate_prefix_.begin());
  const TenantId t = owned_[idx < owned_.size() ? idx : owned_.size() - 1];
  const TenantSpec& spec = directory_->spec(t);
  pending_tenant_ = t;
  pending_key_ =
      spec.key_base +
      (spec.key_span > 1
           ? static_cast<uint64_t>(rng_.UniformInt(0, static_cast<int64_t>(spec.key_span) - 1))
           : 0);
  pending_measured_ = next_at_ >= options_.warmup;
  // One in-flight arrival: the capture is a single pointer, so the event
  // slots into the simulator pool without allocating.
  sim_->ScheduleAt(next_at_, [this] { Fire(); });
}

void TenantLoadDriver::Fire() {
  ++dispatched_;
  dispatch_(pending_tenant_, pending_key_, pending_measured_);
  PumpNext();
}

}  // namespace mitt::tenant
