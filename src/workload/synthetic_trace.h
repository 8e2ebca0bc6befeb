// Synthetic stand-ins for the five Microsoft production block traces used by
// the prediction-accuracy study (§7.6: DAPPS, DTRS, EXCH, LMBE, TPCC from
// the SNIA IOTTA repository [35][3]).
//
// The real traces are not redistributable here, so each trace is generated
// from the published characterization knobs that matter to a latency
// predictor: arrival burstiness (ON/OFF with heavy-tailed bursts), read/write
// mix, IO size mix, and spatial locality (hot regions + sequential runs).
// Parameters follow the qualitative shape reported for each server class
// (e.g. Exchange is write-heavy and bursty; TPC-C is small-random-IO with
// high concurrency; the dev-tools release server is read-mostly).
//
// The generator is exposed as a trace::TraceCursor (SyntheticTraceCursor),
// so synthetic and imported on-disk traces replay through one code path —
// the accuracy benches, TraceReplayDriver, and bench_replay all consume
// cursors and never care which kind.

#ifndef MITTOS_WORKLOAD_SYNTHETIC_TRACE_H_
#define MITTOS_WORKLOAD_SYNTHETIC_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/trace/cursor.h"
#include "src/trace/writer.h"

namespace mitt::workload {

struct TraceProfile {
  std::string name;
  double read_ratio = 0.7;
  DurationNs mean_interarrival = Millis(2);
  // Burstiness: fraction of time in bursts, and how much denser bursts are.
  double burst_time_fraction = 0.2;
  double burst_speedup = 8.0;
  // IO sizes (bytes) with selection weights.
  std::vector<std::pair<int64_t, double>> size_mix = {{4096, 0.6}, {8192, 0.25}, {65536, 0.15}};
  // Spatial locality: probability the next IO continues sequentially, and the
  // number of zipfian-popular hot regions otherwise.
  double sequential_prob = 0.2;
  int hot_regions = 64;
  int64_t span_bytes = 200LL << 30;
};

// The five paper traces ("the busiest 5 minutes" of each).
const std::vector<TraceProfile>& PaperTraceProfiles();

// Streams a profile's deterministic record sequence one event at a time, in
// constant memory. Every yielded event carries `stream` as its stream id; a
// cursor built with the same profile, duration and seed yields the identical
// sequence.
class SyntheticTraceCursor : public trace::TraceCursor {
 public:
  SyntheticTraceCursor(const TraceProfile& profile, DurationNs duration, uint64_t seed,
                       uint32_t stream = 0);

  bool Next(trace::TraceEvent* out) override;

 private:
  const TraceProfile profile_;
  const DurationNs duration_;
  const uint32_t stream_;
  const int64_t region_size_;
  const double mean_iat_;

  Rng rng_;
  ZipfianGenerator region_zipf_;
  TimeNs t_ = 0;
  int64_t last_end_ = 0;
  bool in_burst_ = false;
  TimeNs phase_end_ = 0;
  bool done_ = false;
};

// Merges one cursor per profile (stream id = profile index, per-stream seed
// derived from `seed`) into an on-disk trace, k-way by arrival time with
// stream index breaking ties. Stops after `max_records` if nonzero. The
// caller still owns writer->Finish(). Returns false on writer failure.
bool WriteSyntheticMix(const std::vector<TraceProfile>& profiles, DurationNs duration,
                       uint64_t seed, uint64_t max_records, trace::TraceWriter* writer);

}  // namespace mitt::workload

#endif  // MITTOS_WORKLOAD_SYNTHETIC_TRACE_H_
