// CFQ (Completely Fair Queueing) IO scheduler (§4.2), structurally following
// Linux's: three service trees (RealTime / BestEffort / Idle); per-process
// nodes inside each tree served round-robin with priority-scaled time slices;
// inside each node the pending IOs are sorted by on-disk offset; dispatched
// IOs go to the device queue (bounded by a per-process quantum).
//
// Simplifications vs. Linux, documented for fidelity review:
//  * one cgroup (the paper's experiments use a single group),
//  * no anticipatory idling between slices,
//  * priority affects slice length; RR order within a tree is FIFO.
//
// With a MittCfqPredictor attached, arriving IOs that cannot meet their
// deadline complete with EBUSY immediately, and previously accepted IOs whose
// deadline becomes unmeetable (bumped by higher-class arrivals) are cancelled
// out of the queues with EBUSY (§4.2 "Accuracy").
//
// Hot-path layout: the per-process "rbtree" is a descending offset-sorted
// vector (dispatch pops the back, insertion is a binary search + shift —
// queues are short, so the shift beats per-IO tree-node allocation), the
// round-robin trees are intrusive doubly-linked lists threaded through the
// ProcQueue nodes, and ProcQueue nodes live in a stable-address slab with a
// free list. Under pid churn, idle queues past a threshold are recycled
// (their vectors keep capacity), so steady state allocates nothing.

#ifndef MITTOS_SCHED_CFQ_SCHEDULER_H_
#define MITTOS_SCHED_CFQ_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/device/disk_model.h"
#include "src/os/mitt_cfq.h"
#include "src/sched/sched_obs.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulator.h"

namespace mitt::sched {

struct CfqParams {
  // Slice for priority p (0 highest .. 7 lowest):
  //   slice = base_slice * (8 - p) / 4   (tunable, monotone in priority).
  DurationNs base_slice = Millis(40);
};

class CfqScheduler : public IoScheduler {
 public:
  CfqScheduler(sim::Simulator* sim, device::DiskModel* disk, os::MittCfqPredictor* predictor,
               const CfqParams& params = {});

  void Submit(IoRequest* req) override;
  size_t PendingCount() const override { return pending_; }
  const SchedObs* observer() const override { return &obs_; }

  // Test introspection.
  size_t ProcPendingCount(int32_t pid) const;

 private:
  struct ProcQueue {
    int32_t pid = 0;
    IoClass io_class = IoClass::kBestEffort;
    int8_t priority = 4;
    // Pending IOs in *descending* offset order: back() is the smallest
    // offset, equal offsets keep FIFO order at the back (insertion places a
    // new IO before existing equals), so dispatch is pop_back().
    std::vector<IoRequest*> sorted;
    int in_device = 0;
    bool in_rr = false;
    ProcQueue* rr_prev = nullptr;
    ProcQueue* rr_next = nullptr;
  };

  // Intrusive round-robin list over ProcQueue::rr_prev/rr_next.
  struct RrList {
    ProcQueue* head = nullptr;
    ProcQueue* tail = nullptr;
    size_t count = 0;

    bool empty() const { return count == 0; }
    size_t size() const { return count; }
    ProcQueue* front() const { return head; }
    void push_back(ProcQueue* p);
    void remove(ProcQueue* p);
    void pop_front() { remove(head); }
  };

  ProcQueue& GetProc(const IoRequest& req);
  void EnsureInTree(ProcQueue* proc);
  void MaybeRemoveFromTree(ProcQueue* proc);
  void MaybeRecycleProc(ProcQueue* proc);
  static void SortedInsert(std::vector<IoRequest*>* sorted, IoRequest* req);
  DurationNs SliceFor(const ProcQueue& proc) const;
  // Highest-rank (lowest index) class with runnable processes, or -1.
  int BusiestClass() const;
  void SelectActive();
  void DispatchMore();
  void OnDeviceCompletion(IoRequest* req);
  void CompleteEbusy(IoRequest* req);

  // Recycle idle ProcQueues only past this population, i.e. under pid churn;
  // long-lived pids keep their nodes (and their vectors' capacity) warm.
  static constexpr size_t kProcRecycleThreshold = 1024;

  sim::Simulator* sim_;
  device::DiskModel* disk_;
  os::MittCfqPredictor* predictor_;
  CfqParams params_;
  SchedObs obs_;

  std::deque<ProcQueue> proc_slab_;  // Stable addresses; grows only.
  std::vector<ProcQueue*> proc_free_;
  std::unordered_map<int32_t, ProcQueue*> procs_;
  std::vector<IoRequest*> victims_;  // Reused snapshot of predictor victims.
  RrList trees_[3];  // Round-robin lists per service class.
  ProcQueue* active_ = nullptr;
  TimeNs slice_end_ = 0;
  size_t pending_ = 0;
  TimeNs last_completion_ = 0;
};

}  // namespace mitt::sched

#endif  // MITTOS_SCHED_CFQ_SCHEDULER_H_
