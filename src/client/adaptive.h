// "Choose-the-fastest-replica" strategies (§7.8.3):
//
//  * SnitchStrategy — Cassandra-style dynamic snitching [1]: per-replica
//    latency scores refreshed on a coarse interval; requests go to the
//    replica with the best score as of the last refresh. Effective for
//    stable imbalance, ineffective for sub-second burstiness.
//  * C3Strategy — C3's adaptive replica selection [52], simplified: replicas
//    are ranked by an EWMA response time plus a *cubic* penalty on the
//    client's outstanding requests to that replica (the cubic replica
//    scoring of the C3 paper; we omit its server-side rate control and use
//    client-observed state only, which matches the information available in
//    our deployment model).

#ifndef MITTOS_CLIENT_ADAPTIVE_H_
#define MITTOS_CLIENT_ADAPTIVE_H_

#include <vector>

#include "src/client/strategy.h"

namespace mitt::client {

class SnitchStrategy : public GetStrategy {
 public:
  struct Options {
    // Scores used for routing are only refreshed this often (Cassandra
    // resets/recomputes snitch scores on a coarse interval).
    DurationNs update_interval = Millis(100);
  };

  SnitchStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                 const Options& options);
  ~SnitchStrategy() override;

  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

 private:
  void RefreshTick();

  Options options_;
  std::vector<double> ewma_ns_;      // Live per-node EWMA.
  std::vector<double> snapshot_ns_;  // Scores actually used for routing.
  sim::EventId refresh_event_ = sim::kInvalidEventId;
  GetPool<GetRecord> gets_;
};

class C3Strategy : public GetStrategy {
 public:
  C3Strategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed);

  void Get(uint64_t key, const GetContext& ctx, GetDoneFn done) override;

 private:
  double Score(int node) const;

  std::vector<double> ewma_ns_;
  std::vector<int> outstanding_;
  // A stale score decays toward the fleet mean, so a replica that recovered
  // from a burst is re-tried within a few seconds (without this, min-score
  // selection never revisits a once-slow replica).
  std::vector<TimeNs> last_update_;
  GetPool<GetRecord> gets_;
};

}  // namespace mitt::client

#endif  // MITTOS_CLIENT_ADAPTIVE_H_
