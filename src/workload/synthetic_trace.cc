#include "src/workload/synthetic_trace.h"

namespace mitt::workload {

const std::vector<TraceProfile>& PaperTraceProfiles() {
  static const std::vector<TraceProfile>* profiles = [] {
    auto* p = new std::vector<TraceProfile>;
    // DAPPS: hosted application servers — moderate rate, mixed sizes.
    p->push_back({.name = "DAPPS",
                  .read_ratio = 0.56,
                  .mean_interarrival = Millis(3),
                  .burst_time_fraction = 0.25,
                  .burst_speedup = 6.0,
                  .size_mix = {{4096, 0.4}, {8192, 0.3}, {32768, 0.2}, {65536, 0.1}},
                  .sequential_prob = 0.25,
                  .hot_regions = 64});
    // DTRS: developer tools release server — read-mostly distribution server.
    p->push_back({.name = "DTRS",
                  .read_ratio = 0.91,
                  .mean_interarrival = Millis(2),
                  .burst_time_fraction = 0.2,
                  .burst_speedup = 5.0,
                  .size_mix = {{4096, 0.3}, {16384, 0.3}, {65536, 0.4}},
                  .sequential_prob = 0.45,
                  .hot_regions = 32});
    // EXCH: Exchange mail server — write-heavy, small random IO, bursty.
    p->push_back({.name = "EXCH",
                  .read_ratio = 0.43,
                  .mean_interarrival = Micros(1500),
                  .burst_time_fraction = 0.3,
                  .burst_speedup = 10.0,
                  .size_mix = {{4096, 0.5}, {8192, 0.35}, {32768, 0.15}},
                  .sequential_prob = 0.1,
                  .hot_regions = 128});
    // LMBE: live maps back-end — large sequential reads with bursts.
    p->push_back({.name = "LMBE",
                  .read_ratio = 0.78,
                  .mean_interarrival = Millis(2),
                  .burst_time_fraction = 0.25,
                  .burst_speedup = 7.0,
                  .size_mix = {{8192, 0.3}, {65536, 0.5}, {262144, 0.2}},
                  .sequential_prob = 0.55,
                  .hot_regions = 16});
    // TPCC: OLTP — small random IOs, high concurrency, moderate writes.
    p->push_back({.name = "TPCC",
                  .read_ratio = 0.65,
                  .mean_interarrival = kMillisecond,
                  .burst_time_fraction = 0.35,
                  .burst_speedup = 8.0,
                  .size_mix = {{4096, 0.8}, {8192, 0.2}},
                  .sequential_prob = 0.05,
                  .hot_regions = 256});
    return p;
  }();
  return *profiles;
}

SyntheticTraceCursor::SyntheticTraceCursor(const TraceProfile& profile, DurationNs duration,
                                           uint64_t seed, uint32_t stream)
    : profile_(profile),
      duration_(duration),
      stream_(stream),
      region_size_(profile.span_bytes / profile.hot_regions),
      mean_iat_(static_cast<double>(profile.mean_interarrival)),
      rng_(seed ^ (profile.name.empty() ? 0 : static_cast<uint64_t>(profile.name[0]) * 131)),
      region_zipf_(static_cast<uint64_t>(profile.hot_regions), 0.9) {}

// One generator step. The RNG call order is the contract: phase draw(s),
// interarrival, read/write, size, locality — any reordering changes every
// seeded trace in the repo.
bool SyntheticTraceCursor::Next(trace::TraceEvent* out) {
  if (done_ || t_ >= duration_) {
    done_ = true;
    return false;
  }

  // ON/OFF burst phases with exponential phase lengths.
  if (t_ >= phase_end_) {
    in_burst_ = rng_.NextDouble() < profile_.burst_time_fraction;
    const double mean_phase =
        in_burst_ ? static_cast<double>(Millis(300)) : static_cast<double>(Millis(900));
    phase_end_ = t_ + static_cast<DurationNs>(rng_.Exponential(mean_phase));
  }
  const double rate_scale = in_burst_ ? 1.0 / profile_.burst_speedup : 1.0;
  t_ += static_cast<DurationNs>(rng_.Exponential(mean_iat_ * rate_scale)) + 1;
  if (t_ >= duration_) {
    done_ = true;
    return false;
  }

  out->at = t_;
  out->stream = stream_;
  out->op = rng_.NextDouble() < profile_.read_ratio ? trace::kOpRead : trace::kOpWrite;

  // Size mix.
  double pick = rng_.NextDouble();
  int64_t size = profile_.size_mix.back().first;
  for (const auto& [candidate, weight] : profile_.size_mix) {
    if (pick < weight) {
      size = candidate;
      break;
    }
    pick -= weight;
  }
  out->len = static_cast<uint32_t>(size);

  // Spatial locality: continue sequentially or jump to a hot region.
  if (rng_.NextDouble() < profile_.sequential_prob) {
    out->offset = last_end_;
  } else {
    const auto region = static_cast<int64_t>(region_zipf_.Next(rng_));
    out->offset = region * region_size_ + rng_.UniformInt(0, region_size_ - size - 1);
  }
  last_end_ = out->offset + size;
  return true;
}

bool WriteSyntheticMix(const std::vector<TraceProfile>& profiles, DurationNs duration,
                       uint64_t seed, uint64_t max_records, trace::TraceWriter* writer) {
  // K-way merge over one cursor per profile. K is small (five paper traces),
  // so a linear min-scan beats a heap and keeps tie-breaking obvious:
  // earliest arrival wins, lowest stream index on ties.
  std::vector<SyntheticTraceCursor> cursors;
  cursors.reserve(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    cursors.emplace_back(profiles[i], duration, seed + 0x9E3779B97F4A7C15ULL * i,
                         static_cast<uint32_t>(i));
  }
  std::vector<trace::TraceEvent> heads(cursors.size());
  std::vector<bool> live(cursors.size(), false);
  for (size_t i = 0; i < cursors.size(); ++i) {
    live[i] = cursors[i].Next(&heads[i]);
  }

  uint64_t written = 0;
  for (;;) {
    size_t best = cursors.size();
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (live[i] && (best == cursors.size() || heads[i].at < heads[best].at)) {
        best = i;
      }
    }
    if (best == cursors.size()) {
      break;
    }
    if (!writer->Append(heads[best])) {
      return false;
    }
    if (max_records > 0 && ++written >= max_records) {
      break;
    }
    live[best] = cursors[best].Next(&heads[best]);
  }
  return true;
}

}  // namespace mitt::workload
