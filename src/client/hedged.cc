#include "src/client/hedged.h"

#include <memory>

namespace mitt::client {

HedgedStrategy::HedgedStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                               const Options& options)
    : GetStrategy(sim, cluster, seed), options_(options) {}

void HedgedStrategy::Get(uint64_t key, GetDoneFn done) {
  const auto replicas = Replicas(key);
  auto settled = std::make_shared<bool>(false);
  auto shared_done = std::make_shared<GetDoneFn>(std::move(done));
  auto tries = std::make_shared<int>(1);

  auto on_reply = [settled, shared_done, tries](Status status, DurationNs) {
    if (*settled) {
      return;  // The slower of the two; the first response wins.
    }
    *settled = true;
    (*shared_done)({status, *tries});
  };

  const obs::TraceContext trace = BeginTrace();
  SendGetWithHint(replicas[0], key, sched::kNoDeadline, on_reply, trace);

  // Hedge timer: after the p95 delay, duplicate to the next replica. The
  // first request stays outstanding (no cancellation).
  sim_->Schedule(options_.hedge_delay,
                 [this, key, second = replicas[1], settled, tries, on_reply, trace] {
                   if (*settled) {
                     return;
                   }
                   ++hedges_sent_;
                   *tries = 2;
                   RecordFailover(trace);
                   SendGetWithHint(second, key, sched::kNoDeadline, on_reply, trace);
                 });
}

}  // namespace mitt::client
