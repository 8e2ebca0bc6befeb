// A node's CPU: `cores` identical servers draining a FIFO queue of CPU
// bursts. Captures the hedge-induced CPU contention of §7.5: when more
// request-handler threads are runnable than there are hardware threads
// (12 threads on an 8-thread machine), handler bursts queue and the extra
// wait shows up as a latency tail.
//
// Job completions are common::InlineFunction (48-byte SBO, move-only). Queued
// jobs wait in a RingQueue; a job on a core parks its completion in a slot
// array, so the burst's event captures only {this, slot}. Once the queue and
// the slot array reach their working size, Execute->fire allocates nothing
// unless a caller's own capture outgrows the inline buffer.
//
// Fault injection (src/fault/): PauseFor models a stop-the-world event (GC,
// hypervisor freeze) — bursts already on a core finish, but no queued or
// newly arriving burst starts until the pause lifts.

#ifndef MITTOS_CLUSTER_CPU_POOL_H_
#define MITTOS_CLUSTER_CPU_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/ring_queue.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace mitt::cluster {

class CpuPool {
 public:
  using DoneFn = InlineFunction<void()>;

  CpuPool(sim::Simulator* sim, int cores);

  // Consumes `work` of CPU, then calls `done`. Zero work calls back on the
  // next event (still through the queue, preserving FIFO fairness).
  void Execute(DurationNs work, DoneFn done);

  // Stop-the-world pause until Now() + duration (overlapping pauses extend
  // to the furthest end). Queued jobs keep their FIFO order and start when
  // the pause lifts.
  void PauseFor(DurationNs duration);
  bool paused() const { return sim_->Now() < paused_until_; }

  int active() const { return active_; }
  int cores() const { return cores_; }
  size_t queued() const { return queue_.size(); }
  uint64_t pauses() const { return pauses_; }

 private:
  struct Job {
    DurationNs work = 0;
    DoneFn done;
  };

  void StartNext();
  void OnBurstDone(uint32_t slot);
  void OnResume();

  sim::Simulator* sim_;
  int cores_;
  int active_ = 0;
  TimeNs paused_until_ = 0;
  uint64_t pauses_ = 0;
  RingQueue<Job> queue_;
  // Completions of the bursts on a core, by slot; at most `cores_` are live.
  std::vector<DoneFn> running_;
  std::vector<uint32_t> free_running_;
};

}  // namespace mitt::cluster

#endif  // MITTOS_CLUSTER_CPU_POOL_H_
