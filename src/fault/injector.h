// FaultInjector: replays a FaultPlan against a live cluster::Cluster. Every
// node-level fault acts on the node's kv::StorageNode, so it reaches DocStore
// and LSM nodes alike.
//
// Every fault transition is a global event on the cluster's
// sim::ShardedEngine: it runs while every shard is quiesced, because faults
// mutate cross-shard state (network links, remote nodes), and, like a daemon
// event, it never keeps the run alive after the workload drains (on one
// shard it is a daemon event). Start() schedules one begin per episode; each
// begin applies the fault through the target layer's injection hook and
// schedules the matching clear. At one instant a clear runs before a begin
// on the same target (EpisodesShareTarget), so an episode that begins where
// another ends takes effect. Fail-slow disks degrade through an 8-step
// ramp across the first quarter of the episode — media ages, it does not
// flip a switch — which is what makes the predictor's profiled model go
// stale *gradually* (organic prediction error, vs the artificially injected
// error of Fig. 10).
//
// Every activation is logged as an AppliedEpisode (ground truth for the
// 1-vs-N-worker determinism check), emitted as a `fault_active` span into
// shard 0's obs ring, and counted in shard 0's `fault_episodes_total`
// metric; episode times are shard 0's clock, which a global event advances
// to its own timestamp.

#ifndef MITTOS_FAULT_INJECTOR_H_
#define MITTOS_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/fault/fault_plan.h"
#include "src/sim/simulator.h"

namespace mitt::fault {

class FaultInjector {
 public:
  FaultInjector(cluster::Cluster* cluster, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every episode (as global events). Call once, before Run().
  void Start();

  const FaultPlan& plan() const { return plan_; }

  // Episodes fully applied (begin + clear), in clear order. Bit-identical
  // across MITT_TRIAL_WORKERS settings for the same plan and world.
  const std::vector<AppliedEpisode>& applied() const { return applied_; }

  uint64_t episodes_begun() const { return episodes_begun_; }
  // Episodes that target a hook absent from this world (e.g. a disk fault on
  // an SSD-backed node) or an out-of-range node.
  uint64_t episodes_skipped() const { return episodes_skipped_; }

 private:
  static constexpr int kRampSteps = 8;

  // A begun episode whose End has not run.
  struct Active {
    size_t index;
    TimeNs start;
  };

  void Begin(size_t index);
  // Clears the episode and logs it; does nothing if it already ended.
  void End(size_t index);
  // Schedules a fault transition `delay` from now as a global event.
  void ScheduleFaultEvent(DurationNs delay, sim::Callback fn);
  // True if the episode's target exists in this world.
  bool Applicable(const FaultEpisode& episode) const;
  void ApplyDiskMultiplier(const FaultEpisode& episode, double multiplier);
  void ApplySsdMultiplier(const FaultEpisode& episode, double multiplier);

  sim::Simulator* sim_;  // Shard 0: the clock, tracer and metrics.
  cluster::Cluster* cluster_;
  FaultPlan plan_;
  std::vector<AppliedEpisode> applied_;
  std::vector<Active> active_;  // In begin order.
  uint64_t episodes_begun_ = 0;
  uint64_t episodes_skipped_ = 0;
  bool started_ = false;
};

}  // namespace mitt::fault

#endif  // MITTOS_FAULT_INJECTOR_H_
