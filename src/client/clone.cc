#include "src/client/clone.h"

#include <memory>

namespace mitt::client {

CloneStrategy::CloneStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed)
    : GetStrategy(sim, cluster, seed) {}

void CloneStrategy::Get(uint64_t key, GetDoneFn done) {
  const auto replicas = Replicas(key);
  // Two distinct random replicas.
  const auto first = static_cast<size_t>(rng_.UniformInt(0, 2));
  size_t second = static_cast<size_t>(rng_.UniformInt(0, 1));
  if (second >= first) {
    ++second;
  }
  auto settled = std::make_shared<bool>(false);
  auto shared_done = std::make_shared<GetDoneFn>(std::move(done));
  auto on_reply = [settled, shared_done](Status status, DurationNs) {
    if (*settled) {
      return;  // The slower clone; discarded.
    }
    *settled = true;
    (*shared_done)({status, 2});
  };
  const obs::TraceContext trace = BeginTrace();
  SendGetWithHint(replicas[static_cast<int>(first)], key, sched::kNoDeadline, on_reply, trace);
  SendGetWithHint(replicas[static_cast<int>(second)], key, sched::kNoDeadline, on_reply, trace);
}

}  // namespace mitt::client
