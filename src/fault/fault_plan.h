// mitt::fault — deterministic fail-slow / fault-injection plans.
//
// The noise layer (src/noise/) models *contention*: well-behaved hardware
// shared with greedy neighbors. This subsystem models the other half of the
// paper's motivation — hardware and nodes that misbehave outright: fail-slow
// disks whose media degrades under the predictor that profiled them, SSD
// chips stuck in read-retry storms, network delay spikes / drops /
// partitions, and nodes that pause stop-the-world or crash and come back
// with a cold cache.
//
// A FaultPlan is a typed episode schedule, built either from explicit
// episodes or from a seeded RNG (GenerateChaosPlan), and replayed exactly —
// the same plan against the same world produces bit-identical fault delivery
// at any MITT_TRIAL_WORKERS setting, because delivery is driven entirely by
// simulator events and per-component seeded RNGs (no wall clock, no shared
// mutable state across trials).

#ifndef MITTOS_FAULT_FAULT_PLAN_H_
#define MITTOS_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace mitt::fault {

enum class FaultKind : uint8_t {
  // Fail-slow rotational disk: service times ramp up to `severity`x over the
  // episode (degrading-media curve), then the device recovers (remap /
  // replacement). The DiskProfile the predictor learned stays stale.
  kFailSlowDisk,
  // SSD read-retry latency storm on one chip (`chip` >= 0) or every chip
  // (`chip` == -1): media reads take `severity`x their profiled time while
  // the firmware retries around a marginal page.
  kSsdReadRetry,
  // Link delay spike: one-way latency to/from `node` (or every link when
  // `node` < 0) is multiplied by `severity`.
  kNetworkDegrade,
  // Lossy link: each message to/from `node` is dropped with probability
  // `severity` and redelivered after the transport's retransmit timeout —
  // lost-then-retransmitted, so closed loops stay live while timeout and
  // hedged client paths trigger.
  kNetworkDrop,
  // Transient partition: messages to/from `node` are held and delivered
  // (fresh network hop each) when the partition heals at episode end.
  kNetworkPartition,
  // Stop-the-world node pause (GC, VM freeze): the node's CPU pool starts no
  // new work for `duration`; in-flight bursts finish, arrivals queue.
  kNodePause,
  // Crash + restart with a cold page cache: every resident page is lost at
  // episode start and the node accepts no new work for `duration`.
  kNodeCrashRestart,
};

std::string_view FaultKindName(FaultKind kind);

// A kind's legal severity: a multiplier in [1, 100] (fail-slow disk, SSD read
// retry, network degrade), a drop probability in [0.05, 1], and exactly 1 for
// the kinds that ignore it. The chaos mutator clamps into it; the plan
// reader rejects a value outside it.
struct SeverityRange {
  double lo = 1.0;
  double hi = 1.0;
};
SeverityRange SeverityRangeOf(FaultKind kind);

struct FaultEpisode {
  FaultKind kind = FaultKind::kFailSlowDisk;
  int node = 0;              // Target node (network kinds: link peer; <0 = all).
  TimeNs start = 0;
  DurationNs duration = 0;
  double severity = 1.0;     // Kind-specific magnitude (see FaultKind docs).
  int chip = -1;             // kSsdReadRetry only: target chip, -1 = all.

  TimeNs end() const { return start + duration; }

  bool operator==(const FaultEpisode&) const = default;
};

// True when the two episodes drive the *same* injector target: the same
// kind, node selectors that are equal or either the all-nodes wildcard, and
// for SSD read retry chip selectors that are equal or either all chips.
bool EpisodesShareTarget(const FaultEpisode& a, const FaultEpisode& b);

// True when the two episodes share a target over an overlapping time range.
// The injector does not compose same-target episodes: the later Begin
// overwrites the earlier one's multiplier and the earlier End clears the
// fault while the later episode is nominally still active (last-write-wins,
// first-end-clears). Overlaps are therefore almost always plan bugs; the
// chaos mutator drops them from every plan it generates. Back-to-back
// episodes (one begins where the other ends) do not overlap: the injector
// runs the End first.
bool EpisodesOverlap(const FaultEpisode& a, const FaultEpisode& b);

// One fault activation as actually applied by the injector, logged in
// activation order — the replayable ground truth a determinism check (or a
// post-mortem) compares across worker counts.
struct AppliedEpisode {
  FaultKind kind = FaultKind::kFailSlowDisk;
  int node = 0;
  TimeNs start = 0;
  TimeNs end = 0;
  double severity = 1.0;
  int chip = -1;

  bool operator==(const AppliedEpisode&) const = default;
};

// An immutable, (start, node, kind)-sorted episode schedule.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEpisode> episodes);

  const std::vector<FaultEpisode>& episodes() const { return episodes_; }
  bool empty() const { return episodes_.empty(); }
  size_t size() const { return episodes_.size(); }

 private:
  std::vector<FaultEpisode> episodes_;
};

// Fluent builder for hand-written scenarios. Episodes may be added in any
// order; Build() sorts them into deterministic delivery order and keeps
// same-target overlaps as given (see EpisodesOverlap).
class FaultPlanBuilder {
 public:
  FaultPlanBuilder& Add(const FaultEpisode& episode);

  FaultPlanBuilder& FailSlowDisk(int node, TimeNs start, DurationNs duration, double multiplier);
  FaultPlanBuilder& SsdReadRetry(int node, TimeNs start, DurationNs duration, double multiplier,
                                 int chip = -1);
  FaultPlanBuilder& NetworkDegrade(int node, TimeNs start, DurationNs duration, double multiplier);
  FaultPlanBuilder& NetworkDrop(int node, TimeNs start, DurationNs duration, double drop_prob);
  FaultPlanBuilder& NetworkPartition(int node, TimeNs start, DurationNs duration);
  FaultPlanBuilder& NodePause(int node, TimeNs start, DurationNs duration);
  FaultPlanBuilder& NodeCrashRestart(int node, TimeNs start, DurationNs restart_time);

  // Repeated episodes of one kind on one node: exponential gaps around
  // `mean_gap`, uniform durations in [min_on, max_on], all derived from
  // `seed` — the fault-side analogue of an EC2 noise schedule. Every episode
  // lies entirely within [0, horizon): an on-duration that would cross the
  // horizon is truncated to end exactly there (the RNG stream is unchanged,
  // so all earlier episodes are identical to the untruncated schedule).
  FaultPlanBuilder& RepeatEpisodes(FaultKind kind, int node, TimeNs horizon, DurationNs mean_gap,
                                   DurationNs min_on, DurationNs max_on, double severity,
                                   uint64_t seed, int chip = -1);

  FaultPlan Build();

 private:
  std::vector<FaultEpisode> episodes_;
};

// Seeded chaos mix: every enabled fault class sprinkled independently across
// `num_nodes` nodes over [0, horizon). Deterministic in (options, num_nodes,
// horizon, seed).
struct ChaosOptions {
  bool fail_slow_disk = true;
  bool ssd_read_retry = false;   // Only meaningful on SSD-backed worlds.
  bool network_degrade = true;
  bool network_drop = false;     // Lossy-link storms (retransmit-visible).
  bool network_partition = false;
  bool node_pause = true;
  bool node_crash = false;

  DurationNs mean_gap = Seconds(20);       // Mean quiet gap per (kind, node).
  DurationNs min_on = Millis(200);
  DurationNs max_on = Seconds(2);
  double fail_slow_multiplier = 4.0;
  double drop_probability = 0.85;          // kNetworkDrop severity, in (0, 1].
  DurationNs pause_duration = Millis(120);
  DurationNs restart_duration = Millis(250);
  // Fraction of nodes each fault class may strike (>=1 node always eligible).
  double blast_radius = 0.25;
};

FaultPlan GenerateChaosPlan(const ChaosOptions& options, int num_nodes, TimeNs horizon,
                            uint64_t seed);

}  // namespace mitt::fault

#endif  // MITTOS_FAULT_FAULT_PLAN_H_
