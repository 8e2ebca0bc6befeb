#include "src/cluster/cpu_pool.h"

#include <utility>

namespace mitt::cluster {

CpuPool::CpuPool(sim::Simulator* sim, int cores) : sim_(sim), cores_(cores) {}

void CpuPool::Execute(DurationNs work, DoneFn done) {
  queue_.push_back({work, std::move(done)});
  StartNext();
}

void CpuPool::PauseFor(DurationNs duration) {
  const TimeNs until = sim_->Now() + duration;
  if (until <= paused_until_) {
    return;  // Subsumed by an already-pending pause.
  }
  const bool was_paused = paused();
  paused_until_ = until;
  ++pauses_;
  if (was_paused) {
    return;  // The existing resume event fires early and reschedules.
  }
  // Non-daemon: queued jobs must still complete after the pause lifts even
  // if no other foreground events remain.
  sim_->Schedule(duration, [this] { OnResume(); });
}

void CpuPool::OnResume() {
  if (sim_->Now() < paused_until_) {
    // The pause was extended after this event was scheduled.
    sim_->Schedule(paused_until_ - sim_->Now(), [this] { OnResume(); });
    return;
  }
  StartNext();
}

void CpuPool::StartNext() {
  while (active_ < cores_ && !queue_.empty() && !paused()) {
    Job& job = queue_.front();
    const DurationNs work = job.work;
    uint32_t slot;
    if (free_running_.empty()) {
      slot = static_cast<uint32_t>(running_.size());
      running_.push_back(std::move(job.done));
    } else {
      slot = free_running_.back();
      free_running_.pop_back();
      running_[slot] = std::move(job.done);
    }
    queue_.pop_front();
    ++active_;
    sim_->Schedule(work, [this, slot] { OnBurstDone(slot); });
  }
}

void CpuPool::OnBurstDone(uint32_t slot) {
  --active_;
  DoneFn done = std::move(running_[slot]);
  free_running_.push_back(slot);
  if (done) {
    done();
  }
  StartNext();
}

}  // namespace mitt::cluster
