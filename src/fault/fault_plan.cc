#include "src/fault/fault_plan.h"

#include <algorithm>
#include <iterator>

namespace mitt::fault {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailSlowDisk:
      return "fail_slow_disk";
    case FaultKind::kSsdReadRetry:
      return "ssd_read_retry";
    case FaultKind::kNetworkDegrade:
      return "network_degrade";
    case FaultKind::kNetworkDrop:
      return "network_drop";
    case FaultKind::kNetworkPartition:
      return "network_partition";
    case FaultKind::kNodePause:
      return "node_pause";
    case FaultKind::kNodeCrashRestart:
      return "node_crash_restart";
  }
  return "?";
}

SeverityRange SeverityRangeOf(FaultKind kind) {
  // Indexed by FaultKind, in declaration order.
  static constexpr SeverityRange kRanges[] = {
      {1.0, 100.0},  // kFailSlowDisk
      {1.0, 100.0},  // kSsdReadRetry
      {1.0, 100.0},  // kNetworkDegrade
      {0.05, 1.0},   // kNetworkDrop
      {1.0, 1.0},    // kNetworkPartition
      {1.0, 1.0},    // kNodePause
      {1.0, 1.0},    // kNodeCrashRestart
  };
  static_assert(std::size(kRanges) == static_cast<size_t>(FaultKind::kNodeCrashRestart) + 1);
  return kRanges[static_cast<size_t>(kind)];
}

namespace {

// Severities of GenerateChaosPlan's kSsdReadRetry and kNetworkDegrade
// episodes.
constexpr double kChaosReadRetryMultiplier = 25.0;
constexpr double kChaosNetworkMultiplier = 20.0;

void SortEpisodes(std::vector<FaultEpisode>& episodes) {
  std::stable_sort(episodes.begin(), episodes.end(),
                   [](const FaultEpisode& a, const FaultEpisode& b) {
                     if (a.start != b.start) {
                       return a.start < b.start;
                     }
                     if (a.node != b.node) {
                       return a.node < b.node;
                     }
                     return static_cast<uint8_t>(a.kind) < static_cast<uint8_t>(b.kind);
                   });
}

}  // namespace

bool EpisodesShareTarget(const FaultEpisode& a, const FaultEpisode& b) {
  if (a.kind != b.kind) {
    return false;  // Distinct kinds drive distinct injector knobs.
  }
  // Node selectors overlap when equal or either is the all-nodes wildcard.
  if (a.node != b.node && a.node >= 0 && b.node >= 0) {
    return false;
  }
  // SSD read-retry: chip selectors overlap when equal or either is all-chips.
  return a.kind != FaultKind::kSsdReadRetry || a.chip == b.chip || a.chip < 0 || b.chip < 0;
}

bool EpisodesOverlap(const FaultEpisode& a, const FaultEpisode& b) {
  return EpisodesShareTarget(a, b) && a.start < b.end() && b.start < a.end();
}

FaultPlan::FaultPlan(std::vector<FaultEpisode> episodes) : episodes_(std::move(episodes)) {
  SortEpisodes(episodes_);
}

FaultPlanBuilder& FaultPlanBuilder::Add(const FaultEpisode& episode) {
  episodes_.push_back(episode);
  return *this;
}

FaultPlanBuilder& FaultPlanBuilder::FailSlowDisk(int node, TimeNs start, DurationNs duration,
                                                 double multiplier) {
  return Add({FaultKind::kFailSlowDisk, node, start, duration, multiplier, -1});
}

FaultPlanBuilder& FaultPlanBuilder::SsdReadRetry(int node, TimeNs start, DurationNs duration,
                                                 double multiplier, int chip) {
  return Add({FaultKind::kSsdReadRetry, node, start, duration, multiplier, chip});
}

FaultPlanBuilder& FaultPlanBuilder::NetworkDegrade(int node, TimeNs start, DurationNs duration,
                                                   double multiplier) {
  return Add({FaultKind::kNetworkDegrade, node, start, duration, multiplier, -1});
}

FaultPlanBuilder& FaultPlanBuilder::NetworkDrop(int node, TimeNs start, DurationNs duration,
                                                double drop_prob) {
  return Add({FaultKind::kNetworkDrop, node, start, duration, drop_prob, -1});
}

FaultPlanBuilder& FaultPlanBuilder::NetworkPartition(int node, TimeNs start, DurationNs duration) {
  return Add({FaultKind::kNetworkPartition, node, start, duration, 1.0, -1});
}

FaultPlanBuilder& FaultPlanBuilder::NodePause(int node, TimeNs start, DurationNs duration) {
  return Add({FaultKind::kNodePause, node, start, duration, 1.0, -1});
}

FaultPlanBuilder& FaultPlanBuilder::NodeCrashRestart(int node, TimeNs start,
                                                     DurationNs restart_time) {
  return Add({FaultKind::kNodeCrashRestart, node, start, restart_time, 1.0, -1});
}

FaultPlanBuilder& FaultPlanBuilder::RepeatEpisodes(FaultKind kind, int node, TimeNs horizon,
                                                   DurationNs mean_gap, DurationNs min_on,
                                                   DurationNs max_on, double severity,
                                                   uint64_t seed, int chip) {
  Rng rng(seed ^ (static_cast<uint64_t>(kind) << 32) ^ static_cast<uint64_t>(node + 1));
  TimeNs t = static_cast<TimeNs>(rng.Exponential(static_cast<double>(mean_gap)));
  while (t < horizon) {
    auto on = static_cast<DurationNs>(
        rng.Uniform(static_cast<double>(min_on), static_cast<double>(max_on)));
    // Truncate (never shift) so the episode stays inside [0, horizon) while
    // every earlier draw — and therefore every earlier episode — is
    // byte-identical to the unclamped schedule.
    const DurationNs clamped = std::min(on, horizon - t);
    if (clamped > 0) {
      Add({kind, node, t, clamped, severity, chip});
    }
    t += on + static_cast<TimeNs>(rng.Exponential(static_cast<double>(mean_gap)));
  }
  return *this;
}

FaultPlan FaultPlanBuilder::Build() {
  FaultPlan plan(std::move(episodes_));
  episodes_.clear();
  return plan;
}

FaultPlan GenerateChaosPlan(const ChaosOptions& options, int num_nodes, TimeNs horizon,
                            uint64_t seed) {
  FaultPlanBuilder builder;
  Rng pick_rng(seed ^ 0xFA417);
  const int radius =
      std::max(1, static_cast<int>(static_cast<double>(num_nodes) * options.blast_radius));

  // Each fault class independently picks `radius` victim nodes (deterministic
  // draw order: kinds in enum order, nodes low-to-high within each draw).
  auto victims = [&](FaultKind kind) {
    std::vector<int> chosen;
    for (int i = 0; i < radius; ++i) {
      chosen.push_back(static_cast<int>(pick_rng.UniformInt(0, num_nodes - 1)));
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    (void)kind;
    return chosen;
  };

  if (options.fail_slow_disk) {
    for (const int node : victims(FaultKind::kFailSlowDisk)) {
      builder.RepeatEpisodes(FaultKind::kFailSlowDisk, node, horizon, options.mean_gap,
                             options.min_on, options.max_on, options.fail_slow_multiplier,
                             seed ^ 0xF51);
    }
  }
  if (options.ssd_read_retry) {
    for (const int node : victims(FaultKind::kSsdReadRetry)) {
      const int chip = static_cast<int>(pick_rng.UniformInt(0, 127));
      builder.RepeatEpisodes(FaultKind::kSsdReadRetry, node, horizon, options.mean_gap,
                             options.min_on, options.max_on, kChaosReadRetryMultiplier,
                             seed ^ 0x55D, chip);
    }
  }
  if (options.network_degrade) {
    for (const int node : victims(FaultKind::kNetworkDegrade)) {
      builder.RepeatEpisodes(FaultKind::kNetworkDegrade, node, horizon, options.mean_gap,
                             options.min_on, options.max_on, kChaosNetworkMultiplier,
                             seed ^ 0xDE6);
    }
  }
  if (options.network_drop) {
    for (const int node : victims(FaultKind::kNetworkDrop)) {
      builder.RepeatEpisodes(FaultKind::kNetworkDrop, node, horizon, options.mean_gap,
                             options.min_on, options.max_on, options.drop_probability,
                             seed ^ 0xD409);
    }
  }
  if (options.network_partition) {
    for (const int node : victims(FaultKind::kNetworkPartition)) {
      builder.RepeatEpisodes(FaultKind::kNetworkPartition, node, horizon, options.mean_gap * 2,
                             options.min_on, options.max_on, 1.0, seed ^ 0x9A7);
    }
  }
  if (options.node_pause) {
    for (const int node : victims(FaultKind::kNodePause)) {
      builder.RepeatEpisodes(FaultKind::kNodePause, node, horizon, options.mean_gap,
                             options.pause_duration, options.pause_duration, 1.0, seed ^ 0x6C);
    }
  }
  if (options.node_crash) {
    for (const int node : victims(FaultKind::kNodeCrashRestart)) {
      builder.RepeatEpisodes(FaultKind::kNodeCrashRestart, node, horizon, options.mean_gap * 4,
                             options.restart_duration, options.restart_duration, 1.0,
                             seed ^ 0xC4A5);
    }
  }
  return builder.Build();
}

}  // namespace mitt::fault
