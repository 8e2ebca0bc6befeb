// TenantLoadDriver: open-loop multi-tenant arrival generation.
//
// The tenant-mix analogue of trace::TraceReplayDriver: arrivals fire at
// seeded exponential inter-arrival times for the combined rate of this
// driver's tenants, never waiting for completions. Each arrival picks a
// tenant by rate-weighted draw (binary search over precomputed prefix sums)
// and a key uniform in the tenant's key range, then hands (tenant, key,
// measured) to the dispatch callback — the harness turns that into a client
// Get with the tenant's SLO class deadline.
//
// Sharding contract (same as the replay driver): a sharded world runs one
// driver per shard and each driver owns the deterministic tenant subset
// `tenant % num_shards == shard`, with its own Rng stream seeded from (seed,
// shard). The partition is a pure function of the scenario, so results are
// bit-identical at any MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS.
//
// Hot loop = one Exponential draw + one binary search + one ScheduleAt +
// the dispatch call; the closure captures only `this` and the prefix-sum
// table is built once, so the steady state allocates nothing
// (tests/alloc_test.cc gates this).

#ifndef MITTOS_TENANT_WORKLOAD_H_
#define MITTOS_TENANT_WORKLOAD_H_

#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"
#include "src/tenant/tenant.h"

namespace mitt::tenant {

class TenantLoadDriver {
 public:
  struct Options {
    // Arrivals in [0, warmup) are dispatched unmeasured (cache/queue warmup);
    // arrivals stop at warmup + duration.
    DurationNs warmup = Millis(200);
    DurationNs duration = Seconds(2);
    // This driver's partition: owns tenants with t % num_shards == shard.
    int shard = 0;
    int num_shards = 1;
    uint64_t seed = 1;
  };

  using DispatchFn = std::function<void(TenantId tenant, uint64_t key, bool measured)>;

  TenantLoadDriver(sim::Simulator* sim, const TenantDirectory* directory,
                   const Options& options, DispatchFn dispatch);

  // Schedules the first owned arrival; no-op (done() == true) when the
  // partition is empty or carries zero rate.
  void Start();

  // True once every owned arrival has fired. Open loop: the dispatcher
  // drives the sim until done() AND its own completion count catches up.
  bool done() const { return done_; }
  uint64_t dispatched() const { return dispatched_; }

 private:
  void PumpNext();
  void Fire();

  sim::Simulator* sim_;
  const TenantDirectory* directory_;
  Options options_;
  DispatchFn dispatch_;
  Rng rng_;

  // Owned tenants and the cumulative rate table the weighted draw searches.
  std::vector<TenantId> owned_;
  std::vector<double> rate_prefix_;  // rate_prefix_[i] = sum of rates 0..i.
  double total_rate_hz_ = 0;

  TimeNs next_at_ = 0;
  TenantId pending_tenant_ = kNoTenant;
  uint64_t pending_key_ = 0;
  bool pending_measured_ = false;
  uint64_t dispatched_ = 0;
  bool started_ = false;
  bool done_ = false;
};

}  // namespace mitt::tenant

#endif  // MITTOS_TENANT_WORKLOAD_H_
