// Simulator core microbenchmark: schedule/cancel/fire churn at >= 1M events.
//
// Measures the event-engine hot path that every figure reproduction funnels
// through (EXPERIMENTS.md "bench_simcore"): mitt::sim::Simulator's pooled
// slots, InlineFunction closures, handle-ordered heap and tombstone cancels.
//
// The workload is a mixed churn: self-rescheduling event chains whose
// closures capture 32 bytes (over std::function's 16-byte SBO, inside
// InlineFunction's 48-byte buffer — the size class of the codebase's real
// closures), a daemon ticker, and decoy events of which half are cancelled
// while pending.
//
// The counting operator new/delete (src/common/alloc_hook.h) reports
// allocations/event, and the run *asserts* that the steady-state
// schedule->fire path performs zero heap allocations (exit code 1
// otherwise). Results are written to BENCH_simcore.json so the perf
// trajectory is tracked per PR.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/alloc_hook.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace {

using mitt::DurationNs;
using mitt::Micros;
using mitt::Rng;
using mitt::sim::EventId;
using mitt::sim::Simulator;

// --- Workload ----------------------------------------------------------------

struct ChurnResult {
  uint64_t executed = 0;     // Events fired during the measured phase.
  double elapsed_sec = 0;    // Wall time of the measured phase.
  uint64_t allocs = 0;       // Allocations across warmup + measured phases.
  uint64_t alloc_bytes = 0;
  uint64_t steady_allocs = 0;  // Allocations during the measured phase only.
  uint64_t cancelled = 0;
};

// Each chain callback captures the context pointer plus 24 bytes of payload:
// 32 bytes total, over std::function's inline buffer, inside InlineFunction's.
struct Churn {
  struct Ctx {
    Simulator* sim = nullptr;
    Rng rng{0};
    uint64_t fired = 0;
    uint64_t decoys_fired = 0;
    uint64_t scheduled = 0;
    uint64_t cancelled = 0;
    uint64_t target = 0;
    std::vector<EventId> cancel_pool;
  };

  static void ScheduleChain(Ctx* ctx) {
    ++ctx->scheduled;
    const uint64_t payload = ctx->rng.Next();
    ctx->sim->Schedule(
        static_cast<DurationNs>(ctx->rng.UniformInt(Micros(1), Micros(500))),
        [ctx, payload, salt = payload ^ 0x9E37ULL, tag = payload >> 7] {
          // Touch the payload so the capture is not optimized away.
          if ((payload ^ salt ^ tag) == 0x5EED5EED5EEDULL) {
            std::abort();
          }
          Tick(ctx);
        });
  }

  static void Tick(Ctx* ctx) {
    ++ctx->fired;
    if (ctx->fired + ctx->decoys_fired >= ctx->target) {
      return;  // Chain dies; Run() drains the remaining decoys.
    }
    ScheduleChain(ctx);
    // Every 4th fire adds a decoy; once 64 accumulate, cancel every other
    // one while still pending (interleaved schedule/cancel churn).
    if (ctx->fired % 4 == 0) {
      ++ctx->scheduled;
      const uint64_t payload = ctx->rng.Next();
      ctx->cancel_pool.push_back(ctx->sim->Schedule(
          static_cast<DurationNs>(ctx->rng.UniformInt(Micros(800), Micros(4000))),
          [ctx, payload, salt = payload ^ 0xABCDULL, tag = payload << 3] {
            if ((payload ^ salt ^ tag) == 0x0BADF00DULL) {
              std::abort();
            }
            ++ctx->decoys_fired;
          }));
      if (ctx->cancel_pool.size() >= 64) {
        for (size_t i = 0; i < ctx->cancel_pool.size(); i += 2) {
          if (ctx->sim->Cancel(ctx->cancel_pool[i])) {
            ++ctx->cancelled;
          }
        }
        ctx->cancel_pool.clear();  // Keeps capacity: no realloc next round.
      }
    }
  }

  static ChurnResult Run(uint64_t target_events, uint64_t warmup_events, uint64_t seed) {
    Simulator sim;
    Ctx ctx;
    ctx.sim = &sim;
    ctx.rng = Rng(seed);
    ctx.target = target_events;
    ctx.cancel_pool.reserve(1024);

    // Daemon ticker churning alongside the chains.
    std::function<void()> beat_fn;
    auto* beat = &beat_fn;
    beat_fn = [&sim, beat] { sim.ScheduleDaemon(Micros(250), [beat] { (*beat)(); }); };
    sim.ScheduleDaemon(Micros(250), [beat] { (*beat)(); });

    // Capacity pre-pad: a burst of short-lived tombstones forces the event
    // pool and heap well past their steady-state population, so the measured
    // phase never triggers a container regrow on a random high-water mark.
    {
      std::vector<EventId> pad;
      pad.reserve(8192);
      for (int i = 0; i < 8192; ++i) {
        pad.push_back(sim.Schedule(
            static_cast<DurationNs>(ctx.rng.UniformInt(Micros(1), Micros(2000))), [] {}));
      }
      for (const EventId id : pad) {
        sim.Cancel(id);
      }
    }

    for (int i = 0; i < 256; ++i) {
      ScheduleChain(&ctx);
    }

    const uint64_t total_allocs_before = mitt::AllocCount();
    const uint64_t total_bytes_before = mitt::AllocBytes();

    // Warmup: drains the pad burst and settles the decoy population.
    sim.RunUntilPredicate([&ctx, warmup_events] {
      return ctx.fired + ctx.decoys_fired >= warmup_events;
    });

    // Measured steady-state phase.
    const uint64_t executed_before = sim.executed_events();
    const uint64_t steady_allocs_before = mitt::AllocCount();
    const auto t0 = std::chrono::steady_clock::now();
    sim.Run();
    const auto t1 = std::chrono::steady_clock::now();

    ChurnResult r;
    r.executed = sim.executed_events() - executed_before;
    r.elapsed_sec = std::chrono::duration<double>(t1 - t0).count();
    r.allocs = mitt::AllocCount() - total_allocs_before;
    r.alloc_bytes = mitt::AllocBytes() - total_bytes_before;
    r.steady_allocs = mitt::AllocCount() - steady_allocs_before;
    r.cancelled = ctx.cancelled;
    return r;
  }
};

double EventsPerSec(uint64_t events, double sec) {
  return sec > 0 ? static_cast<double>(events) / sec : 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t target = 1'200'000;  // >= 1M fired events per engine.
  int reps = 3;
  if (argc > 1) {
    char* end = nullptr;
    target = std::strtoull(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || target == 0 || target > 2'000'000'000ULL) {
      std::fprintf(stderr, "usage: %s [target_events, 1..2e9] [reps, 1..100]\n", argv[0]);
      return 2;
    }
  }
  if (argc > 2) {
    reps = std::atoi(argv[2]);
    if (reps < 1 || reps > 100) {
      std::fprintf(stderr, "usage: %s [target_events, 1..2e9] [reps, 1..100]\n", argv[0]);
      return 2;
    }
  }
  const uint64_t warmup = target / 12;
  const uint64_t seed = 0x51AC02E;

  std::printf("=== bench_simcore: %llu-event schedule/cancel/fire churn, best of %d ===\n",
              static_cast<unsigned long long>(target), reps);

  // Keep the fastest repetition: on shared or single-core machines a single
  // rep is hostage to scheduler noise.
  ChurnResult best;
  for (int rep = 0; rep < reps; ++rep) {
    const ChurnResult r = Churn::Run(target, warmup, seed);
    // Steady-state allocation accounting must hold on *every* rep, so carry
    // the worst alloc counter with the best time.
    const uint64_t worst_steady = std::max(best.steady_allocs, r.steady_allocs);
    if (rep == 0 || r.elapsed_sec < best.elapsed_sec) {
      best = r;
    }
    best.steady_allocs = worst_steady;
  }

  const double eps = EventsPerSec(best.executed, best.elapsed_sec);
  const double ns_per_event =
      best.executed ? 1e9 * best.elapsed_sec / static_cast<double>(best.executed) : 0.0;
  const double allocs_per_event =
      best.executed ? static_cast<double>(best.allocs) / static_cast<double>(best.executed) : 0.0;
  std::printf(
      "%9.0f events/s  %7.1f ns/event  %6.3f allocs/event  "
      "(executed=%llu cancelled=%llu steady_allocs=%llu)\n",
      eps, ns_per_event, allocs_per_event, static_cast<unsigned long long>(best.executed),
      static_cast<unsigned long long>(best.cancelled),
      static_cast<unsigned long long>(best.steady_allocs));

  FILE* out = std::fopen("BENCH_simcore.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"benchmark\": \"simcore\",\n"
                 "  \"workload\": {\"target_events\": %llu, \"warmup_events\": %llu,\n"
                 "               \"capture_bytes\": 32, \"seed\": %llu},\n"
                 "  \"pooled\": {\"executed_events\": %llu, \"elapsed_sec\": %.6f,\n"
                 "             \"events_per_sec\": %.0f, \"ns_per_event\": %.2f,\n"
                 "             \"allocs\": %llu, \"alloc_bytes\": %llu,\n"
                 "             \"allocs_per_event\": %.4f, \"cancelled\": %llu,\n"
                 "             \"steady_state_allocs\": %llu}\n"
                 "}\n",
                 static_cast<unsigned long long>(target), static_cast<unsigned long long>(warmup),
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(best.executed), best.elapsed_sec, eps,
                 ns_per_event, static_cast<unsigned long long>(best.allocs),
                 static_cast<unsigned long long>(best.alloc_bytes), allocs_per_event,
                 static_cast<unsigned long long>(best.cancelled),
                 static_cast<unsigned long long>(best.steady_allocs));
    std::fclose(out);
    std::printf("wrote BENCH_simcore.json\n");
  }

  // Acceptance gate: the steady-state Schedule->fire path must be
  // allocation-free for inline-sized captures.
  if (best.steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: the engine performed %llu heap allocations in the "
                 "steady-state phase (expected 0)\n",
                 static_cast<unsigned long long>(best.steady_allocs));
    return 1;
  }
  std::printf("OK: steady-state phase performed zero heap allocations\n");
  return 0;
}
