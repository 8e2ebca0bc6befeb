#include "src/client/clone.h"

#include <algorithm>

namespace mitt::client {

CloneStrategy::CloneStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed)
    : GetStrategy(sim, cluster, seed) {}

void CloneStrategy::Get(uint64_t key, const GetContext& /*ctx*/, GetDoneFn done) {
  const auto replicas = Replicas(key);
  // Two distinct random replicas of the group (both copies go to the only
  // replica of a one-node group).
  const int first = static_cast<int>(rng_.UniformInt(0, replicas.size - 1));
  int second = static_cast<int>(rng_.UniformInt(0, std::max(replicas.size - 2, 0)));
  if (replicas.size > 1 && second >= first) {
    ++second;
  }
  GetRecord* g = gets_.Acquire(std::move(done));
  g->tries = 2;
  const obs::TraceContext trace = BeginTrace();
  for (const int index : {first, second}) {
    gets_.Hold(g);
    SendGetWithHint(
        replicas[index], key, sched::kNoDeadline,
        [this, g](Status status, DurationNs) {
          Settle(g, status);  // The slower clone finds the get settled.
          gets_.Drop(g);
        },
        trace);
  }
}

}  // namespace mitt::client
