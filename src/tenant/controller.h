// PlacementController: cluster-level SLO-aware consolidation / rebalancing
// (Serifos direction, ROADMAP item 4).
//
// A control loop over the predictors' O(1) aggregates. Each node's scheduler
// already maintains cumulative wait sums and dispatch counts for free
// (sched::SchedObs); the controller probes them at a fixed cadence, diffs
// consecutive probes into per-window deltas, and treats
//
//     pressure_i = d(wait_sum) / d(dispatches)
//
// as node i's mean imposed queueing delay for the window — the same quantity
// the Mitt* predictors estimate per request, aggregated. Windows also feed a
// controller-owned resilience::ReplicaHealthTracker (batch OnWindow), so an
// EBUSY storm or fail-slow latency opens the node's breaker and marks it
// unplaceable even when raw pressure looks survivable.
//
// A node is *hot* when its pressure exceeds `overload_factor` x the cluster
// mean (with enough window dispatches to trust the number) or its breaker is
// open. Hot nodes are drained tenant-by-tenant — strictest SLO class first,
// then highest measured window rate (whales move first because moving one
// whale fixes more pressure than moving a hundred mice) — onto the
// least-loaded healthy nodes, capped per tick, with a per-tenant cooldown so
// placements do not thrash.
//
// Determinism: every tick runs as a quiesced sim::ShardedEngine global event,
// so all shards observe each migration at the same simulated instant; inputs
// are scheduler aggregates
// at the barrier plus the controller's own seeded state, making runs
// bit-identical at any MITT_INTRA_WORKERS x MITT_TRIAL_WORKERS. See
// DESIGN.md §4i.

#ifndef MITTOS_TENANT_CONTROLLER_H_
#define MITTOS_TENANT_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time.h"
#include "src/resilience/replica_health.h"
#include "src/sim/sharded_engine.h"
#include "src/tenant/placement.h"
#include "src/tenant/tenant.h"

namespace mitt::tenant {

// One node's cumulative counters at probe time. The controller keeps the
// previous probe and works on deltas; `tenant_gets` is a borrowed span of
// per-tenant cumulative get counts (may be null when the node does not do
// tenant accounting).
struct NodeProbe {
  uint64_t wait_sum_ns = 0;
  uint64_t dispatches = 0;
  uint64_t rejects = 0;
  uint64_t gets = 0;
  uint64_t ebusy = 0;
  const uint64_t* tenant_gets = nullptr;
  uint32_t tenant_count = 0;
};

struct PlacementControllerOptions {
  DurationNs period = Millis(200);
  // First tick fires at start time + period (Start() stamps the start).
  double overload_factor = 2.0;
  // Windows with fewer dispatches than this cannot mark a node hot (the
  // pressure estimate is noise at tiny denominators).
  uint64_t min_window_dispatches = 16;
  int max_migrations_per_tick = 64;
  // A migrated tenant is pinned for this many ticks.
  int tenant_cooldown_ticks = 3;
  // Absolute pressure below which a node is never hot, whatever the ratio to
  // the mean (keeps idle clusters from rebalancing on microscopic waits).
  DurationNs pressure_floor = Micros(500);
  // Weight-aware drain accounting: node load, keep_load, and the per-tenant
  // "whales first" drain order are measured in SloClass::weight-scaled get
  // units instead of raw gets, so a gold get (weight 4) counts 4x a bronze
  // get. A hot node then sheds the tenants that free the most *weighted*
  // capacity first, and keeps raw-get mice whose weighted footprint is small.
  // Requires per-(node, tenant) accounting in the probes; nodes without it
  // fall back to raw gets. Off = the pre-weight behavior (raw gets).
  bool weight_aware = true;
  resilience::ReplicaHealthOptions health;
  uint64_t seed = 1;
};

class PlacementController {
 public:
  using ProbeFn = std::function<NodeProbe(int node)>;

  // Ticks are global events on `engine`; the health tracker runs on its
  // shard 0. `placement` and the probe target must outlive the controller.
  PlacementController(sim::ShardedEngine* engine, const TenantDirectory* directory,
                      PlacementMap* placement, int num_nodes, ProbeFn probe,
                      const PlacementControllerOptions& options);

  // Arms the periodic tick from the current simulated time. Daemon-like:
  // ticks never keep the run alive past the workload.
  void Start();

  // Runs exactly one probe+decide round at the current simulated time, off
  // the timer. Unit-test hook; also the body of the periodic tick.
  void TickOnce();

  // --- Introspection / harvest ---
  uint64_t ticks() const { return ticks_; }
  uint64_t migrations() const { return migrations_; }
  uint64_t hot_ticks() const { return hot_ticks_; }  // Ticks that saw >=1 hot node.
  resilience::ReplicaHealthTracker& health() { return health_; }
  // Last window's pressure estimate for `node`, ns per dispatch.
  double pressure(int node) const { return pressure_[static_cast<size_t>(node)]; }

 private:
  void Arm(TimeNs when);

  sim::ShardedEngine* engine_;
  const TenantDirectory* directory_;
  PlacementMap* placement_;
  int num_nodes_;
  ProbeFn probe_;
  PlacementControllerOptions options_;
  resilience::ReplicaHealthTracker health_;

  struct NodeCum {
    uint64_t wait_sum_ns = 0;
    uint64_t dispatches = 0;
    uint64_t gets = 0;
    uint64_t ebusy = 0;
  };
  std::vector<NodeCum> prev_;
  // Previous per-(node, tenant) cumulative gets, flat num_nodes x num_tenants.
  std::vector<uint64_t> prev_tenant_gets_;
  // Scratch, reused across ticks.
  std::vector<double> pressure_;
  std::vector<uint64_t> win_dispatches_;
  std::vector<double> load_;            // Projected window load per node (weighted units).
  std::vector<uint64_t> tenant_rate_;   // Window gets per tenant (all nodes).
  std::vector<double> weight_;          // Per-tenant SloClass::weight, cached.
  std::vector<uint64_t> cooldown_until_tick_;
  std::vector<TenantId> drain_list_;

  uint64_t ticks_ = 0;
  uint64_t migrations_ = 0;
  uint64_t hot_ticks_ = 0;
};

}  // namespace mitt::tenant

#endif  // MITTOS_TENANT_CONTROLLER_H_
