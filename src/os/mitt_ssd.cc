#include "src/os/mitt_ssd.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace mitt::os {

MittSsdPredictor::MittSsdPredictor(sim::Simulator* sim, const device::SsdModel* ssd,
                                   device::SsdProfile profile, const PredictorOptions& options,
                                   const MittSsdOptions& ssd_options)
    : sim_(sim),
      ssd_(ssd),
      profile_(std::move(profile)),
      options_(options),
      ssd_options_(ssd_options),
      error_rng_(kErrorSeed) {
  chip_next_free_.assign(static_cast<size_t>(ssd_->num_chips()), 0);
  channel_outstanding_.assign(static_cast<size_t>(ssd_->params().num_channels), 0);
}

DurationNs MittSsdPredictor::SubIoService(const sched::IoRequest& req,
                                          int64_t logical_page) const {
  // Chip-occupancy time only: the channel transfer is accounted separately
  // through the outstanding-IO term of the wait formula, so charging it to
  // the chip as well would double-count it and over-reject.
  switch (req.op) {
    case sched::IoOp::kRead:
      return profile_.page_read_total - profile_.channel_delay;
    case sched::IoOp::kWrite: {
      if (!ssd_options_.use_program_pattern) {
        return profile_.ProgramTime(0);
      }
      const int64_t in_chip = logical_page / ssd_->num_chips();
      const int pos = static_cast<int>(in_chip % ssd_->params().pages_per_block);
      return profile_.ProgramTime(pos);
    }
    case sched::IoOp::kErase:
      return profile_.erase_time;
  }
  return 0;
}

DurationNs MittSsdPredictor::PredictedWait(const sched::IoRequest& req) const {
  const TimeNs now = sim_->Now();
  if (!ssd_options_.per_chip_tracking) {
    // Strawman single-queue model: the whole device is busy until the max of
    // all chip next-free times — the maintained running maximum.
#ifdef MITT_PREDICT_CHECK
    TimeNs walked = 0;
    for (const TimeNs t : chip_next_free_) {
      walked = std::max(walked, t);
    }
    if (walked != busiest_next_free_) {
      std::fprintf(stderr,
                   "MittSsd predict-check: busiest_next_free_=%lld != chip walk %lld\n",
                   static_cast<long long>(busiest_next_free_),
                   static_cast<long long>(walked));
      std::abort();
    }
#endif
    return std::max<DurationNs>(0, busiest_next_free_ - now);
  }
  const int64_t first = ssd_->PageOfOffset(req.offset);
  const int64_t last = ssd_->PageOfOffset(req.offset + std::max<int64_t>(req.size, 1) - 1);
  DurationNs worst = 0;
  for (int64_t p = first; p <= last; ++p) {
    const int chip = ssd_->ChipOfPage(p);
    const int channel = ssd_->ChannelOfChip(chip);
    const DurationNs wait =
        std::max<DurationNs>(0, chip_next_free_[chip] - now) +
        profile_.channel_delay * channel_outstanding_[channel];
    worst = std::max(worst, wait);
  }
  return worst;
}

bool MittSsdPredictor::ShouldReject(sched::IoRequest* req) {
  const DurationNs wait = PredictedWait(*req);
  req->predicted_wait = wait;
  req->predicted_process = SubIoService(*req, ssd_->PageOfOffset(req->offset));

  return DecideReject(options_, error_rng_, req, wait);
}

void MittSsdPredictor::OnAccepted(sched::IoRequest* req) {
  const TimeNs now = sim_->Now();
  const int64_t first = ssd_->PageOfOffset(req->offset);
  const int64_t last = ssd_->PageOfOffset(req->offset + std::max<int64_t>(req->size, 1) - 1);
  for (int64_t p = first; p <= last; ++p) {
    const int chip = ssd_->ChipOfPage(p);
    const int channel = ssd_->ChannelOfChip(chip);
    TimeNs& free_at = chip_next_free_[chip];
    if (free_at < now) {
      free_at = now;
    }
    free_at += SubIoService(*req, p);
    busiest_next_free_ = std::max(busiest_next_free_, free_at);
    ++channel_outstanding_[channel];
#ifdef MITT_PREDICT_CHECK
    check_channels_of_[req->id].push_back(channel);
#endif
  }
  req->ssd_tracked = true;
}

void MittSsdPredictor::OnCompletion(sched::IoRequest* req) {
  // Device-internal IOs (GC) go straight to the device and never pass
  // admission; they carry no accounting to unwind.
  if (req->ssd_tracked) {
    req->ssd_tracked = false;
    // Recompute the channels the request touched — same page walk, and
    // therefore the same decrement order, as OnAccepted.
    const int64_t first = ssd_->PageOfOffset(req->offset);
    const int64_t last =
        ssd_->PageOfOffset(req->offset + std::max<int64_t>(req->size, 1) - 1);
#ifdef MITT_PREDICT_CHECK
    const auto it = check_channels_of_.find(req->id);
    if (it == check_channels_of_.end() ||
        it->second.size() != static_cast<size_t>(last - first + 1)) {
      std::fprintf(stderr, "MittSsd predict-check: channel list mismatch for io %llu\n",
                   static_cast<unsigned long long>(req->id));
      std::abort();
    }
#endif
    for (int64_t p = first; p <= last; ++p) {
      const int channel = ssd_->ChannelOfChip(ssd_->ChipOfPage(p));
#ifdef MITT_PREDICT_CHECK
      if (it->second[static_cast<size_t>(p - first)] != channel) {
        std::fprintf(stderr, "MittSsd predict-check: recomputed channel diverges\n");
        std::abort();
      }
#endif
      channel_outstanding_[channel] = std::max(0, channel_outstanding_[channel] - 1);
    }
#ifdef MITT_PREDICT_CHECK
    check_channels_of_.erase(it);
#endif
  }
  AccountCompletion(options_, *req, sim_->Now(), &stats_);
}

SsdBlockLayer::SsdBlockLayer(sim::Simulator* sim, device::SsdModel* ssd,
                             MittSsdPredictor* predictor)
    : sim_(sim), ssd_(ssd), predictor_(predictor), obs_(sim) {
  ssd_->set_completion_listener([this](sched::IoRequest* req) { OnDeviceCompletion(req); });
}

void SsdBlockLayer::Submit(sched::IoRequest* req) {
  req->submit_time = sim_->Now();
  obs_.Touch(*req);
  if (predictor_ != nullptr) {
    const bool reject = predictor_->ShouldReject(req);
    obs_.OnPredict(*req, reject);
    if (reject) {
      if (req->on_complete) {
        auto cb = std::move(req->on_complete);
        cb(*req, Status::Ebusy());
      }
      return;
    }
    predictor_->OnAccepted(req);
  }
  // No block-layer queue: the IO goes straight to the device, so queue_wait
  // is zero-length and device-internal queueing shows up as device_service.
  // The wait-sum aggregate is settled at completion instead (OnDeviceSojourn).
  obs_.OnDispatch(*req);
  ssd_->Submit(req);
}

void SsdBlockLayer::OnDeviceCompletion(sched::IoRequest* req) {
  if (predictor_ != nullptr) {
    predictor_->OnCompletion(req);
  }
  obs_.OnDeviceSojourn(*req);
  obs_.OnServiceDone(*req);
  if (req->on_complete) {
    auto cb = std::move(req->on_complete);
    cb(*req, Status::Ok());
  }
}

}  // namespace mitt::os
