#include "src/device/disk_model.h"

#include <algorithm>
#include <cmath>

namespace mitt::device {
namespace {

constexpr double kBytesPerGb = 1024.0 * 1024.0 * 1024.0;

}  // namespace

DiskModel::DiskModel(sim::Simulator* sim, const DiskParams& params, uint64_t seed)
    : sim_(sim), params_(params), rng_(seed) {}

bool DiskModel::CanAccept() const { return Occupancy() < params_.queue_depth; }

DurationNs DiskModel::SeekCost(int64_t from_offset, int64_t to_offset) const {
  const double dist_gb =
      std::abs(static_cast<double>(to_offset - from_offset)) / kBytesPerGb;
  if (dist_gb < 1e-6) {
    // Near-sequential access: no seek, track-to-track settle only.
    return params_.seek_base / 10;
  }
  const double seek = static_cast<double>(params_.seek_base) +
                      static_cast<double>(params_.seek_per_gb) * dist_gb +
                      static_cast<double>(params_.seek_sqrt_coeff) * std::sqrt(dist_gb);
  return static_cast<DurationNs>(seek);
}

DurationNs DiskModel::ExpectedServiceTime(int64_t from_offset,
                                          const sched::IoRequest& io) const {
  if (io.op == sched::IoOp::kWrite && params_.nvram_writes) {
    return params_.nvram_latency;
  }
  const DurationNs transfer = params_.transfer_per_kb * std::max<int64_t>(1, io.size / 1024);
  return SeekCost(from_offset, io.offset) + params_.rotational_max / 2 + transfer;
}

DurationNs DiskModel::SampledServiceTime(int64_t from_offset, const sched::IoRequest& io) {
  const DurationNs transfer = params_.transfer_per_kb * std::max<int64_t>(1, io.size / 1024);
  const DurationNs rotation =
      static_cast<DurationNs>(rng_.NextDouble() * static_cast<double>(params_.rotational_max));
  const double jitter = rng_.Uniform(1.0 - params_.jitter, 1.0 + params_.jitter);
  const double total = static_cast<double>(SeekCost(from_offset, io.offset) + rotation + transfer) *
                       jitter * service_multiplier_;
  return static_cast<DurationNs>(total);
}

void DiskModel::Submit(sched::IoRequest* req) {
  if (req->op == sched::IoOp::kWrite && params_.nvram_writes) {
    // Acknowledge from NVRAM, then destage to the platters in the background.
    // The destage occupies the head like any other IO but reports to no one.
    sched::IoRequest* destage = destage_pool_.Acquire();
    destage->id = (0xD000'0000'0000'0000ULL | destage_seq_++);
    destage->dispatch_time = sim_->Now();
    destage->op = sched::IoOp::kWrite;
    destage->offset = req->offset;
    destage->size = req->size;
    destage->pid = req->pid;
    queue_.push_back(destage);
    if (in_service_ == nullptr) {
      StartNext();
    }
    sched::IoRequest* ack = req;
    sim_->Schedule(params_.nvram_latency, [this, ack] {
      ++completed_;
      if (listener_ != nullptr) {
        listener_(ack);
      }
    });
    return;
  }

  req->dispatch_time = sim_->Now();
  queue_.push_back(req);
  if (in_service_ == nullptr) {
    StartNext();
  }
}

void DiskModel::StartNext() {
  // The completion listener may have already pushed and started a new IO by
  // the time OnServiceDone's trailing StartNext runs.
  if (in_service_ != nullptr || queue_.empty()) {
    return;
  }
  // SSTF: pick the pending IO with the cheapest seek from the current head.
  auto best = queue_.begin();
  DurationNs best_cost = SeekCost(head_pos_, (*best)->offset);
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    const DurationNs cost = SeekCost(head_pos_, (*it)->offset);
    if (cost < best_cost) {
      best = it;
      best_cost = cost;
    }
  }
  // Anti-starvation aging: the oldest waiter beats SSTF once it has waited
  // past the starvation bound.
  auto oldest = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    if ((*it)->dispatch_time < (*oldest)->dispatch_time) {
      oldest = it;
    }
  }
  if (sim_->Now() - (*oldest)->dispatch_time > params_.max_starvation) {
    best = oldest;
  }

  sched::IoRequest* req = *best;
  queue_.erase(best);

  const DurationNs service = SampledServiceTime(head_pos_, *req);
  in_service_ = req;
  sim_->Schedule(service, [this, req] { OnServiceDone(req); });
}

void DiskModel::OnServiceDone(sched::IoRequest* req) {
  head_pos_ = req->offset + req->size;
  in_service_ = nullptr;
  ++completed_;

  const bool is_destage = (req->id & 0xF000'0000'0000'0000ULL) == 0xD000'0000'0000'0000ULL;
  if (is_destage) {
    destage_pool_.Release(req);
    if (capacity_listener_) {
      capacity_listener_();
    }
  } else if (listener_ != nullptr) {
    listener_(req);
  }
  StartNext();
}

}  // namespace mitt::device
