// TenantArrivalCursor: the multi-tenant mix as an open-loop arrival trace.
//
// The tenant mix is one more trace::TraceCursor, replayed by the same
// trace::TraceReplayDriver as on-disk and synthetic traces. Arrivals come at
// seeded exponential inter-arrival times for the combined rate of this
// cursor's tenants. Each arrival picks a tenant by rate-weighted draw
// (binary search over precomputed prefix sums) and a key uniform in the
// tenant's key range, and yields the record
//   TraceEvent{at, offset = key << 12, len = 4096, op = kOpRead, stream = tenant}
// the harness turns into a client Get with the tenant's SLO class deadline.
//
// Sharding contract (the replay driver's): a sharded world runs one cursor
// per shard, and each cursor owns the deterministic tenant subset
// `tenant % num_shards == shard`, with its own Rng stream seeded from (seed,
// shard). Every record it yields therefore passes the driver's
// `stream % num_shards == shard` claim. The partition is a pure function of
// the scenario, so results are bit-identical at any MITT_INTRA_WORKERS x
// MITT_TRIAL_WORKERS.
//
// Next() = one Exponential draw + one binary search + one key draw; the
// prefix-sum table is built once, so it allocates nothing
// (tests/alloc_test.cc gates the driver loop over it).

#ifndef MITTOS_TENANT_WORKLOAD_H_
#define MITTOS_TENANT_WORKLOAD_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/tenant/tenant.h"
#include "src/trace/cursor.h"

namespace mitt::tenant {

class TenantArrivalCursor : public trace::TraceCursor {
 public:
  // Yields this shard's arrivals in [0, end). With num_shards <= 1 the
  // cursor owns every tenant; tenants with zero rate never arrive.
  TenantArrivalCursor(const TenantDirectory* directory, TimeNs end, int shard, int num_shards,
                      uint64_t seed);

  bool Next(trace::TraceEvent* out) override;

 private:
  const TenantDirectory* directory_;
  const TimeNs end_;
  Rng rng_;

  // Owned tenants and the cumulative rate table the weighted draw searches.
  std::vector<TenantId> owned_;
  std::vector<double> rate_prefix_;  // rate_prefix_[i] = sum of rates 0..i.
  double total_rate_hz_ = 0;

  TimeNs at_ = 0;
  bool done_ = false;
};

}  // namespace mitt::tenant

#endif  // MITTOS_TENANT_WORKLOAD_H_
