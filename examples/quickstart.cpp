// Quickstart: the MittOS principle in ~80 lines.
//
// Build one simulated machine (disk + CFQ + MittCFQ predictor), make the
// disk busy, then issue the paper's signature call:
//
//     read(..., deadline)  ->  data, or an *instant* EBUSY.
//
// Along the way the obs tracer records every layer the reads cross and the
// run ends by exporting a Chrome trace (quickstart_trace.json — load it in
// chrome://tracing or ui.perfetto.dev).
//
// Run:  ./build/examples/quickstart

#include <cstdio>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/os.h"
#include "src/sim/simulator.h"

int main() {
  using namespace mitt;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  sim::Simulator sim;
  sim.set_tracer(&tracer);
  sim.set_metrics(&metrics);

  // A machine with a 1TB disk under the CFQ scheduler, MittOS enabled.
  os::OsOptions options;
  options.backend = os::BackendKind::kDiskCfq;
  options.mitt_enabled = true;  // Boot-time device profiling happens here.
  os::Os machine(&sim, options);

  const uint64_t db_file = machine.CreateFile(8LL << 30);
  const uint64_t tenant_file = machine.CreateFile(100LL << 30);

  // 1. A read on an idle disk meets a 20ms SLO easily.
  os::Os::ReadArgs read;
  read.file = db_file;
  read.offset = 1 << 20;
  read.size = 4096;
  read.deadline = Millis(20);
  read.bypass_cache = true;
  read.trace = {tracer.NewRequestId(), /*node=*/-1};

  machine.ReadWithWaitHint(read, [&](Status status, DurationNs) {
    std::printf("[%7.3f ms] idle disk:  read -> %s\n", ToMillis(sim.Now()),
                std::string(status.name()).c_str());
  });
  sim.Run();

  // 2. A noisy neighbor floods the disk with forty 1MB reads...
  for (int i = 0; i < 40; ++i) {
    os::Os::ReadArgs noise;
    noise.file = tenant_file;
    noise.offset = static_cast<int64_t>(i) << 30;
    noise.size = 1 << 20;
    noise.pid = 9001;  // A different tenant.
    noise.bypass_cache = true;
    machine.ReadWithWaitHint(noise, nullptr);
  }

  // ...and the same SLO-tagged read is now rejected *immediately*: the
  // predictor sees the queue cannot drain within 20ms, so the application
  // can fail over to a replica instead of waiting.
  const TimeNs before = sim.Now();
  read.trace = {tracer.NewRequestId(), /*node=*/-1};
  machine.ReadWithWaitHint(read, [&](Status status, DurationNs) {
    std::printf("[%7.3f ms] busy disk:  read(deadline=20ms) -> %s after %.1f us\n",
                ToMillis(sim.Now()), std::string(status.name()).c_str(),
                ToMicros(sim.Now() - before));
  });

  // 3. A deadline-less read on the same busy disk just waits (vanilla
  // behaviour is always available).
  os::Os::ReadArgs patient = read;
  patient.deadline = sched::kNoDeadline;
  patient.trace = {tracer.NewRequestId(), /*node=*/-1};
  machine.ReadWithWaitHint(patient, [&](Status status, DurationNs) {
    std::printf("[%7.3f ms] busy disk:  read(no SLO)        -> %s after %.1f ms\n",
                ToMillis(sim.Now()), std::string(status.name()).c_str(),
                ToMillis(sim.Now() - before));
  });

  sim.Run();
  std::printf("\nThat's MittOS: \"busy is error\" — the OS rejects IOs it cannot serve\n"
              "in time, so millisecond-scale applications never wait to find out.\n");

  // Export what the obs layer saw. With MITT_OBS_DISABLED the recording
  // hooks are compiled out, so there is nothing to export — skip gracefully.
  if (sim.tracer() == nullptr) {
    std::printf("\n(observability compiled out: no trace emitted)\n");
    return 0;
  }
  const std::string json = obs::ChromeTraceJson(tracer.OrderedSpans(), "quickstart");
  if (!obs::ValidateJsonSyntax(json)) {
    std::fprintf(stderr, "exported trace is not valid JSON\n");
    return 1;
  }
  const char* path = "quickstart_trace.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nWrote %zu spans (%lu EBUSY) to %s — open it in chrome://tracing.\n",
                tracer.size(), static_cast<unsigned long>(metrics.CounterTotal("ebusy_total")),
                path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }
  return 0;
}
