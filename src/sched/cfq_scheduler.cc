#include "src/sched/cfq_scheduler.h"

#include <algorithm>

namespace mitt::sched {
namespace {

// Max IOs a single process may keep in the device queue at once.
constexpr int kQuantum = 8;

int ClassRank(IoClass c) { return static_cast<int>(c); }

}  // namespace

void CfqScheduler::RrList::push_back(ProcQueue* p) {
  p->rr_prev = tail;
  p->rr_next = nullptr;
  if (tail != nullptr) {
    tail->rr_next = p;
  } else {
    head = p;
  }
  tail = p;
  ++count;
}

void CfqScheduler::RrList::remove(ProcQueue* p) {
  if (p->rr_prev != nullptr) {
    p->rr_prev->rr_next = p->rr_next;
  } else {
    head = p->rr_next;
  }
  if (p->rr_next != nullptr) {
    p->rr_next->rr_prev = p->rr_prev;
  } else {
    tail = p->rr_prev;
  }
  p->rr_prev = p->rr_next = nullptr;
  --count;
}

CfqScheduler::CfqScheduler(sim::Simulator* sim, device::DiskModel* disk,
                           os::MittCfqPredictor* predictor, const CfqParams& params)
    : sim_(sim), disk_(disk), predictor_(predictor), params_(params), obs_(sim) {
  disk_->set_completion_listener([this](IoRequest* req) { OnDeviceCompletion(req); });
  disk_->set_capacity_listener([this] { DispatchMore(); });
  procs_.reserve(256);
  victims_.reserve(16);
}

CfqScheduler::ProcQueue& CfqScheduler::GetProc(const IoRequest& req) {
  auto it = procs_.find(req.pid);
  if (it == procs_.end()) {
    ProcQueue* proc;
    if (!proc_free_.empty()) {
      proc = proc_free_.back();
      proc_free_.pop_back();
    } else {
      proc = &proc_slab_.emplace_back();
    }
    proc->pid = req.pid;
    it = procs_.emplace(req.pid, proc).first;
  }
  // ionice can change a process' class/priority at any time; refresh. A
  // class change must move the queue between round-robin trees, or it is
  // stranded in the old tree with in_rr out of sync and the dispatch loop
  // can select it forever without ever draining it.
  ProcQueue* proc = it->second;
  if (proc->in_rr && proc->io_class != req.io_class) {
    trees_[ClassRank(proc->io_class)].remove(proc);
    proc->in_rr = false;  // EnsureInTree re-files it under the new class.
    if (active_ == proc) {
      active_ = nullptr;
    }
  }
  proc->io_class = req.io_class;
  proc->priority = req.priority;
  return *proc;
}

void CfqScheduler::EnsureInTree(ProcQueue* proc) {
  if (!proc->in_rr) {
    trees_[ClassRank(proc->io_class)].push_back(proc);
    proc->in_rr = true;
  }
}

void CfqScheduler::MaybeRemoveFromTree(ProcQueue* proc) {
  if (proc->in_rr && proc->sorted.empty()) {
    trees_[ClassRank(proc->io_class)].remove(proc);
    proc->in_rr = false;
    if (active_ == proc) {
      active_ = nullptr;
    }
  }
}

void CfqScheduler::MaybeRecycleProc(ProcQueue* proc) {
  if (procs_.size() <= kProcRecycleThreshold || proc->in_rr || proc == active_ ||
      proc->in_device != 0 || !proc->sorted.empty()) {
    return;
  }
  procs_.erase(proc->pid);
  proc->pid = 0;
  proc->io_class = IoClass::kBestEffort;
  proc->priority = 4;
  proc_free_.push_back(proc);
}

void CfqScheduler::SortedInsert(std::vector<IoRequest*>* sorted, IoRequest* req) {
  // Descending order; placing the new IO *before* existing equal offsets
  // keeps pop_back() FIFO among ties, matching the old multimap (which
  // inserted at the upper bound and dispatched from begin()).
  const auto it = std::lower_bound(
      sorted->begin(), sorted->end(), req->offset,
      [](const IoRequest* a, int64_t offset) { return a->offset > offset; });
  sorted->insert(it, req);
}

DurationNs CfqScheduler::SliceFor(const ProcQueue& proc) const {
  return params_.base_slice * (8 - proc.priority) / 4;
}

int CfqScheduler::BusiestClass() const {
  for (int c = 0; c < 3; ++c) {
    if (!trees_[c].empty()) {
      return c;
    }
  }
  return -1;
}

void CfqScheduler::SelectActive() {
  const int top = BusiestClass();
  if (top < 0) {
    active_ = nullptr;
    return;
  }
  // Preemption: a higher class with runnable processes always wins the disk
  // (CFQ "always picks IOs from the RealTime tree first").
  if (active_ != nullptr &&
      (ClassRank(active_->io_class) > top || sim_->Now() >= slice_end_ ||
       active_->sorted.empty())) {
    // Slice over (or preempted): rotate to the back of its tree.
    auto& tree = trees_[ClassRank(active_->io_class)];
    if (active_->in_rr && tree.size() > 1 && tree.front() == active_) {
      tree.pop_front();
      tree.push_back(active_);
    }
    active_ = nullptr;
  }
  if (active_ == nullptr) {
    active_ = trees_[top].front();
    slice_end_ = sim_->Now() + SliceFor(*active_);
  }
}

void CfqScheduler::Submit(IoRequest* req) {
  req->submit_time = sim_->Now();
  obs_.Touch(*req);
  if (predictor_ != nullptr) {
    const bool reject = predictor_->ShouldReject(req);
    obs_.OnPredict(*req, reject);
    if (reject) {
      CompleteEbusy(req);
      return;
    }
  }

  // Snapshot the predictor's victim buffer: completing a victim with EBUSY
  // may re-enter Submit (and thus OnAccepted, which reuses that buffer).
  victims_.clear();
  if (predictor_ != nullptr) {
    const auto& victims = predictor_->OnAccepted(req);
    victims_.assign(victims.begin(), victims.end());
  }

  ProcQueue& proc = GetProc(*req);
  SortedInsert(&proc.sorted, req);
  ++pending_;
  EnsureInTree(&proc);

  // Cancel previously accepted IOs whose deadline this arrival made
  // unmeetable ("bumped to the back", §4.2).
  for (IoRequest* victim : victims_) {
    auto vit = procs_.find(victim->pid);
    if (vit == procs_.end()) {
      continue;
    }
    ProcQueue& vproc = *vit->second;
    auto it = std::lower_bound(
        vproc.sorted.begin(), vproc.sorted.end(), victim->offset,
        [](const IoRequest* a, int64_t offset) { return a->offset > offset; });
    for (; it != vproc.sorted.end() && (*it)->offset == victim->offset; ++it) {
      if (*it == victim) {
        vproc.sorted.erase(it);
        --pending_;
        break;
      }
    }
    MaybeRemoveFromTree(&vproc);
    CompleteEbusy(victim);
  }

  DispatchMore();
}

void CfqScheduler::DispatchMore() {
  while (disk_->CanAccept()) {
    SelectActive();
    if (active_ == nullptr) {
      return;
    }
    ProcQueue* proc = active_;
    if (proc->sorted.empty() || proc->in_device >= kQuantum) {
      // Nothing dispatchable from the active queue right now. If the block is
      // only the quantum, wait for a completion; if the queue is empty the
      // next SelectActive will rotate.
      if (proc->sorted.empty()) {
        MaybeRemoveFromTree(proc);
        if (BusiestClass() < 0) {
          return;
        }
        continue;
      }
      return;
    }
    IoRequest* req = proc->sorted.back();
    proc->sorted.pop_back();
    --pending_;
    ++proc->in_device;
    if (predictor_ != nullptr) {
      predictor_->OnDispatch(req);
    }
    obs_.OnDispatch(*req);
    disk_->Submit(req);
    MaybeRemoveFromTree(proc);
  }
  obs_.OnQueueDepth(pending_);
}

void CfqScheduler::OnDeviceCompletion(IoRequest* req) {
  auto it = procs_.find(req->pid);
  if (it != procs_.end()) {
    it->second->in_device = std::max(0, it->second->in_device - 1);
  }
  if (predictor_ != nullptr) {
    const DurationNs actual = sim_->Now() - std::max(req->dispatch_time, last_completion_);
    predictor_->OnCompletion(*req, actual);
  }
  last_completion_ = sim_->Now();
  obs_.OnServiceDone(*req);
  if (it != procs_.end()) {
    MaybeRecycleProc(it->second);
  }
  if (req->on_complete) {
    auto cb = std::move(req->on_complete);
    cb(*req, Status::Ok());
  }
  DispatchMore();
}

void CfqScheduler::CompleteEbusy(IoRequest* req) {
  if (req->on_complete) {
    auto cb = std::move(req->on_complete);
    cb(*req, Status::Ebusy());
  }
}

size_t CfqScheduler::ProcPendingCount(int32_t pid) const {
  const auto it = procs_.find(pid);
  return it == procs_.end() ? 0 : it->second->sorted.size();
}

}  // namespace mitt::sched
