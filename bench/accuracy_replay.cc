#include "bench/accuracy_replay.h"

#include <algorithm>
#include <memory>

#include "src/common/latency_recorder.h"
#include "src/sim/simulator.h"
#include "src/trace/replay.h"

namespace mitt::bench {
namespace {

// Replays the trace against a fresh Os. If `deadline` > 0 it is attached to
// every read (writes go through sync so they contend at the device). Returns
// the read-latency recorder; `out_os` receives the Os for stats readout.
// Degrading-media ramp: service times climb to `multiplier`x in 8 steps.
// The predictor's profile was learned healthy, so its error grows with the
// ramp — organic, not injected.
void ScheduleFailSlowRamp(sim::Simulator* sim, os::Os* target, const AccuracyOptions& options) {
  constexpr int kSteps = 8;
  for (int s = 1; s <= kSteps; ++s) {
    const double m = 1.0 + (options.fail_slow_multiplier - 1.0) * s / kSteps;
    sim->ScheduleAt(options.fail_slow_start + options.fail_slow_ramp * s / kSteps,
                    [target, m] {
                      if (target->disk() != nullptr) {
                        target->disk()->set_service_time_multiplier(m);
                      }
                      if (target->ssd() != nullptr) {
                        for (int c = 0; c < target->ssd()->num_chips(); ++c) {
                          target->ssd()->set_chip_read_multiplier(c, m);
                        }
                      }
                    });
  }
}

LatencyRecorder Replay(const workload::TraceProfile& profile, const AccuracyOptions& options,
                       DurationNs deadline, bool accuracy_mode,
                       std::unique_ptr<os::Os>* out_os, sim::Simulator* sim) {
  os::OsOptions os_opt;
  os_opt.backend = options.backend;
  os_opt.mitt_enabled = true;
  os_opt.predictor.accuracy_mode = accuracy_mode;
  os_opt.predictor.calibrate = options.calibrate;
  os_opt.mitt_cfq = options.mitt_cfq;
  os_opt.mitt_ssd = options.mitt_ssd;
  os_opt.seed = options.seed;
  auto target = std::make_unique<os::Os>(sim, os_opt);

  const int64_t span = profile.span_bytes;
  const uint64_t file = target->CreateFile(span);

  if (accuracy_mode && options.fail_slow_multiplier != 1.0) {
    ScheduleFailSlowRamp(sim, target.get(), options);
  }

  // The profile's synthetic trace, replayed through the shared cursor +
  // open-loop driver (constant memory, any max_ios).
  workload::SyntheticTraceCursor cursor(profile, Seconds(600), options.seed ^ 0x7ACE);
  trace::TraceReplayDriver::Options ropt;
  ropt.rate_scale = options.rate_scale;
  ropt.max_events = options.max_ios;

  LatencyRecorder latencies;
  size_t completed = 0;
  trace::TraceReplayDriver driver(
      sim, &cursor, ropt,
      [&, target = target.get(), file, deadline](const trace::TraceEvent& event,
                                                 uint64_t /*global_index*/, bool /*measured*/) {
        if (event.op == trace::kOpRead) {
          os::Os::ReadArgs args;
          args.file = file;
          args.offset = event.offset;
          args.size = event.len;
          args.deadline = deadline;
          args.pid = 1;
          args.bypass_cache = true;
          const TimeNs start = sim->Now();
          target->ReadWithWaitHint(args, [&, start](Status, DurationNs) {
            latencies.Record(sim->Now() - start);
            ++completed;
          });
        } else {
          os::Os::WriteArgs args;
          args.file = file;
          args.offset = event.offset;
          args.size = event.len;
          args.pid = 2;
          args.sync = true;
          target->Write(args, [&](Status, DurationNs) { ++completed; });
        }
      });
  driver.Start();
  sim->RunUntilPredicate([&] { return driver.done() && completed >= driver.dispatched(); });

  *out_os = std::move(target);
  return latencies;
}

}  // namespace

AccuracyResult RunAccuracyReplay(const workload::TraceProfile& profile,
                                 const AccuracyOptions& options) {
  AccuracyResult result;
  result.trace = profile.name;

  // Pass 1: learn the p95 latency with no deadlines attached.
  DurationNs p95 = 0;
  {
    sim::Simulator sim;
    std::unique_ptr<os::Os> target;
    const LatencyRecorder base = Replay(profile, options, sched::kNoDeadline,
                                        /*accuracy_mode=*/false, &target, &sim);
    p95 = base.Percentile(95);
  }
  result.deadline = p95;

  // Pass 2: accuracy mode with deadline = p95 on every read.
  {
    sim::Simulator sim;
    std::unique_ptr<os::Os> target;
    const LatencyRecorder run =
        Replay(profile, options, p95, /*accuracy_mode=*/true, &target, &sim);
    result.ios = run.count();
    const os::PredictionStats* stats = nullptr;
    if (target->mitt_cfq() != nullptr) {
      stats = &target->mitt_cfq()->stats();
    } else if (target->mitt_ssd() != nullptr) {
      stats = &target->mitt_ssd()->stats();
    } else if (target->mitt_noop() != nullptr) {
      stats = &target->mitt_noop()->stats();
    }
    if (stats != nullptr && stats->total > 0) {
      result.false_positive_pct =
          100.0 * static_cast<double>(stats->false_positives) / static_cast<double>(stats->total);
      result.false_negative_pct =
          100.0 * static_cast<double>(stats->false_negatives) / static_cast<double>(stats->total);
      result.inaccuracy_pct = stats->InaccuracyPercent();
      result.mean_wrong_diff_ms = stats->MeanWrongDiffNs() / kMillisecond;
    }
  }
  return result;
}

}  // namespace mitt::bench
