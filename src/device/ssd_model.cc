#include "src/device/ssd_model.h"

#include <algorithm>
#include <cassert>

namespace mitt::device {

SsdModel::SsdModel(sim::Simulator* sim, const SsdParams& params, uint64_t seed)
    : sim_(sim), params_(params), rng_(seed) {
  chips_.resize(static_cast<size_t>(num_chips()));
  channels_.resize(static_cast<size_t>(params_.num_channels));
}

bool SsdModel::IsSlowPage(int64_t logical_page) const {
  // Position of this page within its physical block on its chip. Pages are
  // striped round-robin across chips, so the in-chip page index advances by
  // one for every num_chips() logical pages.
  const int64_t in_chip = logical_page / num_chips();
  const int pos = static_cast<int>(in_chip % params_.pages_per_block);
  // The paper's profiled program-time pattern ("1ms write time is needed for
  // pages #0-6, 2ms for page #7, 1ms for pages #8-9, and the middle pages
  // have a repeating pattern of '1122'", ending in "...2112"). We follow the
  // prose layout; the printed string in the paper drops one '1'.
  static constexpr std::string_view kPrefix = "1111111211";
  static constexpr std::string_view kTail = "2112";
  if (pos < static_cast<int>(kPrefix.size())) {
    return kPrefix[static_cast<size_t>(pos)] == '2';
  }
  const int tail_start = params_.pages_per_block - static_cast<int>(kTail.size());
  if (pos >= tail_start) {
    return kTail[static_cast<size_t>(pos - tail_start)] == '2';
  }
  return "1122"[static_cast<size_t>(pos - static_cast<int>(kPrefix.size())) % 4] == '2';
}

void SsdModel::Submit(sched::IoRequest* req) {
  req->dispatch_time = sim_->Now();
  if (req->op == sched::IoOp::kErase) {
    const int64_t page = PageOfOffset(req->offset);
    req->subs_remaining = 1;
    EnqueueChip(ChipOfPage(page), SubIo{req, page, sched::IoOp::kErase});
    return;
  }

  const int64_t first_page = PageOfOffset(req->offset);
  const int64_t last_page = PageOfOffset(req->offset + std::max<int64_t>(req->size, 1) - 1);
  const int n = static_cast<int>(last_page - first_page + 1);
  req->subs_remaining = n;
  for (int64_t p = first_page; p <= last_page; ++p) {
    const SubIo sub{req, p, req->op};
    const int chip = ChipOfPage(p);
    if (req->op == sched::IoOp::kRead) {
      EnqueueChip(chip, sub);  // Media read first, then channel transfer.
    } else {
      EnqueueChannel(ChannelOfChip(chip), sub);  // Data in over the channel, then program.
    }
  }
}

DurationNs SsdModel::MediaTime(const SubIo& sub) {
  DurationNs base = 0;
  switch (sub.op) {
    case sched::IoOp::kRead:
      base = static_cast<DurationNs>(
          static_cast<double>(params_.chip_read) *
          chips_[static_cast<size_t>(ChipOfPage(sub.logical_page))].read_multiplier);
      break;
    case sched::IoOp::kWrite:
      base = IsSlowPage(sub.logical_page) ? params_.program_slow : params_.program_fast;
      break;
    case sched::IoOp::kErase:
      base = params_.erase;
      break;
  }
  const double j = rng_.Uniform(1.0 - params_.jitter, 1.0 + params_.jitter);
  return static_cast<DurationNs>(static_cast<double>(base) * j);
}

void SsdModel::EnqueueChip(int chip, SubIo sub) {
  chips_[chip].queue.push_back(sub);
  StartChip(chip);
}

void SsdModel::StartChip(int chip) {
  Chip& c = chips_[chip];
  if (c.busy || c.queue.empty()) {
    return;
  }
  c.busy = true;
  const SubIo sub = c.queue.front();
  c.queue.pop_front();
  sim_->Schedule(MediaTime(sub), [this, chip, sub] { OnMediaDone(chip, sub); });
}

void SsdModel::OnMediaDone(int chip, SubIo sub) {
  chips_[chip].busy = false;
  if (sub.op == sched::IoOp::kRead) {
    EnqueueChannel(ChannelOfChip(chip), sub);  // Page out over the channel.
  } else {
    FinishSub(sub);  // Program / erase ends at the chip.
  }
  StartChip(chip);
}

void SsdModel::EnqueueChannel(int channel, SubIo sub) {
  channels_[channel].queue.push_back(sub);
  StartChannel(channel);
}

void SsdModel::StartChannel(int channel) {
  Channel& ch = channels_[channel];
  if (ch.busy || ch.queue.empty()) {
    return;
  }
  ch.busy = true;
  const SubIo sub = ch.queue.front();
  ch.queue.pop_front();
  sim_->Schedule(params_.channel_xfer, [this, channel, sub] { OnTransferDone(channel, sub); });
}

void SsdModel::OnTransferDone(int channel, SubIo sub) {
  channels_[channel].busy = false;
  if (sub.op == sched::IoOp::kWrite) {
    EnqueueChip(ChipOfPage(sub.logical_page), sub);  // Now program the page.
  } else {
    FinishSub(sub);  // Read data delivered to the host.
  }
  StartChannel(channel);
}

void SsdModel::FinishSub(const SubIo& sub) {
  sched::IoRequest* parent = sub.parent;
  assert(parent->subs_remaining > 0);
  if (--parent->subs_remaining > 0) {
    return;
  }
  ++completed_;
  // Contract: when a listener is installed it owns completion delivery
  // (including invoking on_complete). Without a listener we invoke
  // on_complete directly. Either way the callback may release the
  // descriptor, so move it out first.
  if (listener_ != nullptr) {
    listener_(parent);
  } else if (parent->on_complete) {
    auto cb = std::move(parent->on_complete);
    cb(*parent, Status::Ok());
  }
}

}  // namespace mitt::device
