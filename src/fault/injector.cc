#include "src/fault/injector.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/sharded_engine.h"

namespace mitt::fault {

FaultInjector::FaultInjector(cluster::Cluster* cluster, FaultPlan plan)
    : sim_(cluster->engine()->shard(0)), cluster_(cluster), plan_(std::move(plan)) {}

void FaultInjector::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  const TimeNs now = sim_->Now();
  for (size_t i = 0; i < plan_.size(); ++i) {
    const FaultEpisode& e = plan_.episodes()[i];
    const DurationNs delay = e.start > now ? e.start - now : 0;
    ScheduleFaultEvent(delay, [this, i] { Begin(i); });
  }
}

void FaultInjector::ScheduleFaultEvent(DurationNs delay, sim::Callback fn) {
  cluster_->engine()->ScheduleGlobal(sim_->Now() + delay, std::move(fn));
}

bool FaultInjector::Applicable(const FaultEpisode& e) const {
  const int n = cluster_->num_nodes();
  switch (e.kind) {
    case FaultKind::kFailSlowDisk:
      return e.node >= 0 && e.node < n && cluster_->node(e.node).os().disk() != nullptr;
    case FaultKind::kSsdReadRetry: {
      if (e.node < 0 || e.node >= n) {
        return false;
      }
      const device::SsdModel* ssd = cluster_->node(e.node).os().ssd();
      return ssd != nullptr && e.chip < ssd->num_chips();
    }
    case FaultKind::kNetworkDegrade:
    case FaultKind::kNetworkDrop:
      return e.node < n;  // node < 0 targets the whole fabric.
    case FaultKind::kNetworkPartition:
      return e.node >= 0 && e.node < n;  // A link, not the fabric.
    case FaultKind::kNodePause:
    case FaultKind::kNodeCrashRestart:
      return e.node >= 0 && e.node < n;
  }
  return false;
}

void FaultInjector::ApplyDiskMultiplier(const FaultEpisode& e, double multiplier) {
  cluster_->node(e.node).os().disk()->set_service_time_multiplier(multiplier);
}

void FaultInjector::ApplySsdMultiplier(const FaultEpisode& e, double multiplier) {
  device::SsdModel* ssd = cluster_->node(e.node).os().ssd();
  if (e.chip >= 0) {
    ssd->set_chip_read_multiplier(e.chip, multiplier);
    return;
  }
  for (int c = 0; c < ssd->num_chips(); ++c) {
    ssd->set_chip_read_multiplier(c, multiplier);
  }
}

void FaultInjector::Begin(size_t index) {
  const FaultEpisode& e = plan_.episodes()[index];
  if (!Applicable(e)) {
    ++episodes_skipped_;
    if (obs::MetricsRegistry* m = sim_->metrics(); m != nullptr) {
      m->counter("fault_skipped_total", e.node).Add();
    }
    return;
  }
  const TimeNs begin_time = sim_->Now();
  // An End due now on this episode's target was queued after this Begin (at
  // the earlier episode's Begin), so it would heal what this Begin sets. Run
  // it first; its queued event then finds the episode inactive.
  for (size_t k = 0; k < active_.size();) {
    const Active a = active_[k];
    const FaultEpisode& other = plan_.episodes()[a.index];
    if (a.start + other.duration == begin_time && EpisodesShareTarget(other, e)) {
      End(a.index);  // Erases active_[k].
    } else {
      ++k;
    }
  }
  ++episodes_begun_;
  active_.push_back({index, begin_time});
  // Recorded at begin with the episode's scheduled window, so a run that
  // ends mid-episode (a long degradation outliving the workload) still shows
  // the fault in its trace. request_id 0 = not tied to one request; the
  // Chrome export shows these as node-scoped background spans.
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled()) {
    tr->RecordSpan(obs::SpanKind::kFaultActive, obs::TraceContext{0, e.node}, begin_time,
                   begin_time + e.duration);
  }
  if (obs::MetricsRegistry* m = sim_->metrics(); m != nullptr) {
    m->counter("fault_episodes_total", e.node).Add();
  }

  switch (e.kind) {
    case FaultKind::kFailSlowDisk: {
      // Degrading media: ramp to full severity in kRampSteps equal steps
      // across the first quarter of the episode. The predictor profiled the
      // healthy device, so its error grows as the ramp climbs.
      const DurationNs ramp = e.duration / 4;
      for (int s = 1; s <= kRampSteps; ++s) {
        const double m = 1.0 + (e.severity - 1.0) * s / kRampSteps;
        ScheduleFaultEvent(ramp * s / kRampSteps, [this, index, m] {
          ApplyDiskMultiplier(plan_.episodes()[index], m);
        });
      }
      break;
    }
    case FaultKind::kSsdReadRetry:
      ApplySsdMultiplier(e, e.severity);
      break;
    case FaultKind::kNetworkDegrade:
      cluster_->network().SetLinkDelayMultiplier(e.node, e.severity);
      break;
    case FaultKind::kNetworkDrop:
      cluster_->network().SetLinkDropProbability(e.node, std::clamp(e.severity, 0.0, 1.0));
      break;
    case FaultKind::kNetworkPartition:
      cluster_->network().SetLinkPartitioned(e.node, true);
      break;
    case FaultKind::kNodePause:
      cluster_->node(e.node).Pause(e.duration);
      break;
    case FaultKind::kNodeCrashRestart:
      cluster_->node(e.node).CrashRestart(e.duration);
      break;
  }

  ScheduleFaultEvent(e.duration, [this, index] { End(index); });
}

void FaultInjector::End(size_t index) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [index](const Active& a) { return a.index == index; });
  if (it == active_.end()) {
    return;  // Ended early, by a same-target Begin at this instant.
  }
  const TimeNs actual_start = it->start;
  active_.erase(it);
  const FaultEpisode& e = plan_.episodes()[index];
  switch (e.kind) {
    case FaultKind::kFailSlowDisk:
      ApplyDiskMultiplier(e, 1.0);  // Remapped / replaced: healthy again.
      break;
    case FaultKind::kSsdReadRetry:
      ApplySsdMultiplier(e, 1.0);
      break;
    case FaultKind::kNetworkDegrade:
      cluster_->network().SetLinkDelayMultiplier(e.node, 1.0);
      break;
    case FaultKind::kNetworkDrop:
      cluster_->network().SetLinkDropProbability(e.node, 0.0);
      break;
    case FaultKind::kNetworkPartition:
      cluster_->network().SetLinkPartitioned(e.node, false);  // Flushes held.
      break;
    case FaultKind::kNodePause:
    case FaultKind::kNodeCrashRestart:
      break;  // The CPU pool's own resume event lifts the pause.
  }

  applied_.push_back(
      {e.kind, e.node, actual_start, sim_->Now(), e.severity, e.chip});
}

}  // namespace mitt::fault
