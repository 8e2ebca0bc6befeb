#include "src/chaos/mutator.h"

#include <algorithm>
#include <cstddef>

namespace mitt::chaos {
namespace {

using fault::FaultEpisode;
using fault::FaultKind;

void ClampSeverity(FaultEpisode* e) {
  const fault::SeverityRange range = fault::SeverityRangeOf(e->kind);
  e->severity = std::clamp(e->severity, range.lo, range.hi);
}

// Weakening direction for the shrinker-style ops: toward benign.
void Weaken(FaultEpisode* e) {
  if (e->kind == FaultKind::kNetworkDrop) {
    e->severity *= 0.5;
  } else {
    e->severity = 1.0 + (e->severity - 1.0) * 0.5;
  }
  ClampSeverity(e);
}

void Intensify(FaultEpisode* e) {
  if (e->kind == FaultKind::kNetworkDrop) {
    e->severity = e->severity * 1.5;
  } else {
    e->severity = 1.0 + (e->severity - 1.0) * 1.5 + 0.5;
  }
  ClampSeverity(e);
}

}  // namespace

PlanMutator::PlanMutator(const MutatorOptions& options, uint64_t seed)
    : options_(options), rng_(seed) {}

FaultKind PlanMutator::RandomKind() {
  // The disk-backed chaos world exercises every kind except SSD read-retry
  // (meaningless on a rotational backend).
  static constexpr FaultKind kKinds[] = {
      FaultKind::kFailSlowDisk,     FaultKind::kNetworkDegrade, FaultKind::kNetworkDrop,
      FaultKind::kNetworkPartition, FaultKind::kNodePause,      FaultKind::kNodeCrashRestart,
  };
  return kKinds[rng_.UniformInt(0, 5)];
}

FaultEpisode PlanMutator::RandomEpisode() {
  FaultEpisode e;
  e.kind = RandomKind();
  e.node = static_cast<int>(rng_.UniformInt(0, options_.num_nodes - 1));
  e.start = static_cast<TimeNs>(
      rng_.UniformInt(0, std::max<int64_t>(1, options_.horizon - kMinEpisodeDuration)));
  const DurationNs max_dur = std::max<DurationNs>(kMinEpisodeDuration, options_.horizon / 4);
  e.duration = rng_.UniformInt(kMinEpisodeDuration, max_dur);
  switch (e.kind) {
    case FaultKind::kFailSlowDisk:
      e.severity = rng_.Uniform(2.0, 20.0);
      break;
    case FaultKind::kSsdReadRetry:
      e.severity = rng_.Uniform(5.0, 40.0);
      break;
    case FaultKind::kNetworkDegrade:
      e.severity = rng_.Uniform(2.0, 40.0);
      break;
    case FaultKind::kNetworkDrop:
      e.severity = rng_.Uniform(0.2, 1.0);
      break;
    default:
      e.severity = 1.0;
      break;
  }
  ClampSeverity(&e);
  return e;
}

fault::FaultPlan PlanMutator::Canonicalize(std::vector<FaultEpisode> episodes) const {
  for (FaultEpisode& e : episodes) {
    ClampSeverity(&e);
    if (e.start < 0) {
      e.start = 0;
    }
    if (e.start >= options_.horizon) {
      e.start = options_.horizon - kMinEpisodeDuration;
    }
    e.duration = std::max(e.duration, kMinEpisodeDuration);
    if (e.end() > options_.horizon) {
      // Slide back first, truncate only when the episode is longer than the
      // whole horizon — keeps every canonical episode inside [0, horizon].
      e.start = std::max<TimeNs>(0, options_.horizon - e.duration);
      if (e.end() > options_.horizon) {
        e.duration = options_.horizon - e.start;
      }
    }
    e.node = std::clamp(e.node, -1, options_.num_nodes - 1);
  }
  // Sort into plan order, then keep-first drop of same-target overlaps: the
  // injector would last-write-wins them, making the child behave unlike its
  // genome — a coverage signal made of lies.
  fault::FaultPlan sorted(std::move(episodes));
  std::vector<FaultEpisode> kept;
  for (const FaultEpisode& e : sorted.episodes()) {
    bool overlaps = false;
    for (const FaultEpisode& k : kept) {
      if (fault::EpisodesOverlap(k, e)) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) {
      kept.push_back(e);
    }
    if (kept.size() >= kMaxPlanEpisodes) {
      break;
    }
  }
  return fault::FaultPlan(std::move(kept));
}

fault::FaultPlan PlanMutator::RandomPlan() {
  fault::ChaosOptions chaos;
  chaos.fail_slow_disk = rng_.Bernoulli(0.7);
  chaos.network_degrade = rng_.Bernoulli(0.5);
  chaos.network_drop = rng_.Bernoulli(0.7);
  chaos.network_partition = rng_.Bernoulli(0.3);
  chaos.node_pause = rng_.Bernoulli(0.5);
  chaos.node_crash = rng_.Bernoulli(0.2);
  chaos.ssd_read_retry = false;
  chaos.mean_gap = options_.horizon / 4;
  chaos.min_on = Millis(30);
  chaos.max_on = std::max<DurationNs>(Millis(60), options_.horizon / 4);
  chaos.blast_radius = rng_.Uniform(0.3, 1.0);
  chaos.drop_probability = rng_.Uniform(0.3, 1.0);
  chaos.pause_duration = Millis(static_cast<int64_t>(rng_.UniformInt(20, 120)));
  chaos.restart_duration = Millis(static_cast<int64_t>(rng_.UniformInt(40, 160)));
  const uint64_t sub_seed = rng_.Next() ^ (next_sub_seed_++ * 0x9E3779B97F4A7C15ULL);
  fault::FaultPlan plan =
      GenerateChaosPlan(chaos, options_.num_nodes, options_.horizon, sub_seed);
  return Canonicalize(plan.episodes());
}

fault::FaultPlan PlanMutator::Mutate(const fault::FaultPlan& parent) {
  std::vector<FaultEpisode> eps = parent.episodes();
  const int ops = static_cast<int>(rng_.UniformInt(1, 3));
  for (int op = 0; op < ops; ++op) {
    if (eps.empty()) {
      eps.push_back(RandomEpisode());
      continue;
    }
    const size_t i = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(eps.size()) - 1));
    switch (rng_.UniformInt(0, 8)) {
      case 0:  // Drop.
        eps.erase(eps.begin() + static_cast<ptrdiff_t>(i));
        break;
      case 1: {  // Split into two halves with a gap.
        FaultEpisode& e = eps[i];
        if (e.duration >= 4 * kMinEpisodeDuration) {
          FaultEpisode tail = e;
          const DurationNs half = e.duration / 2;
          e.duration = half - kMinEpisodeDuration;
          tail.start = e.start + half + kMinEpisodeDuration;
          tail.duration = half - kMinEpisodeDuration;
          eps.push_back(tail);
        }
        break;
      }
      case 2: {  // Merge with the episode's nearest same-kind sibling.
        for (size_t j = 0; j < eps.size(); ++j) {
          if (j != i && eps[j].kind == eps[i].kind && eps[j].node == eps[i].node) {
            eps[i].start = std::min(eps[i].start, eps[j].start);
            const TimeNs end = std::max(eps[i].end(), eps[j].end());
            eps[i].duration = end - eps[i].start;
            eps.erase(eps.begin() + static_cast<ptrdiff_t>(j));
            break;
          }
        }
        break;
      }
      case 3:  // Shift in time.
        eps[i].start += rng_.UniformInt(-options_.horizon / 8, options_.horizon / 8);
        break;
      case 4:  // Stretch / shrink.
        eps[i].duration =
            static_cast<DurationNs>(static_cast<double>(eps[i].duration) * rng_.Uniform(0.5, 2.0));
        break;
      case 5:  // Intensify.
        Intensify(&eps[i]);
        break;
      case 6:  // Weaken.
        Weaken(&eps[i]);
        break;
      case 7:  // Retarget.
        eps[i].node = static_cast<int>(rng_.UniformInt(0, options_.num_nodes - 1));
        break;
      default:  // Add a fresh episode.
        eps.push_back(RandomEpisode());
        break;
    }
  }
  return Canonicalize(std::move(eps));
}

fault::FaultPlan PlanMutator::Splice(const fault::FaultPlan& a, const fault::FaultPlan& b) {
  // Swap one kind's episodes: a's schedule with b's episodes of that kind.
  const FaultKind kind = RandomKind();
  std::vector<FaultEpisode> eps;
  for (const FaultEpisode& e : a.episodes()) {
    if (e.kind != kind) {
      eps.push_back(e);
    }
  }
  for (const FaultEpisode& e : b.episodes()) {
    if (e.kind == kind) {
      eps.push_back(e);
    }
  }
  if (eps.empty()) {
    return Mutate(a);
  }
  return Canonicalize(std::move(eps));
}

}  // namespace mitt::chaos
