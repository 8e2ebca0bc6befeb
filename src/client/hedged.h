// Hedged requests (Dean & Barroso [19], §7.2): "a secondary request is sent
// after the first request has been outstanding for more than the
// 95th-percentile expected latency, which limits the additional load to
// approximately 5% while substantially shortening the latency tail." The
// first request is NOT cancelled.

#ifndef MITTOS_CLIENT_HEDGED_H_
#define MITTOS_CLIENT_HEDGED_H_

#include "src/client/strategy.h"

namespace mitt::client {

class HedgedStrategy : public GetStrategy {
 public:
  struct Options {
    DurationNs hedge_delay = Millis(13);  // The p95 expected latency.
  };

  HedgedStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                 const Options& options);

  void Get(uint64_t key, GetDoneFn done) override;

  uint64_t hedges_sent() const { return hedges_sent_; }

 private:
  Options options_;
  uint64_t hedges_sent_ = 0;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_HEDGED_H_
