#include "src/client/adaptive.h"

#include <cmath>

namespace mitt::client {
namespace {

// Neutral starting score: a plausible uncontended get latency, so the first
// few requests spread across replicas instead of piling onto node 0.
constexpr double kInitialScoreNs = 5.0 * kMillisecond;

constexpr double kSnitchEwmaAlpha = 0.2;
// Cassandra's dynamic-snitch badness threshold: when replica scores are
// within this relative band, requests spread round-robin/randomly instead of
// herding onto the single best replica.
constexpr double kSnitchBadnessThreshold = 0.1;

constexpr double kC3EwmaAlpha = 0.3;
constexpr DurationNs kC3ScoreDecay = Seconds(2);

}  // namespace

SnitchStrategy::SnitchStrategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed,
                               const Options& options)
    : GetStrategy(sim, cluster, seed), options_(options) {
  ewma_ns_.assign(static_cast<size_t>(cluster->num_nodes()), kInitialScoreNs);
  snapshot_ns_ = ewma_ns_;
  refresh_event_ = sim_->ScheduleDaemon(options_.update_interval, [this] { RefreshTick(); });
}

SnitchStrategy::~SnitchStrategy() { sim_->Cancel(refresh_event_); }

void SnitchStrategy::RefreshTick() {
  snapshot_ns_ = ewma_ns_;
  refresh_event_ = sim_->ScheduleDaemon(options_.update_interval, [this] { RefreshTick(); });
}

void SnitchStrategy::Get(uint64_t key, const GetContext& /*ctx*/, GetDoneFn done) {
  const auto replicas = Replicas(key);
  int best = replicas[0];
  for (const int node : replicas) {
    if (snapshot_ns_[static_cast<size_t>(node)] < snapshot_ns_[static_cast<size_t>(best)]) {
      best = node;
    }
  }
  // Badness threshold: near-equal scores spread randomly instead of herding.
  const double best_score = snapshot_ns_[static_cast<size_t>(best)];
  int close[tenant::ReplicaGroup::kMaxReplication];
  int num_close = 0;
  for (const int node : replicas) {
    if (snapshot_ns_[static_cast<size_t>(node)] <=
        best_score * (1.0 + kSnitchBadnessThreshold)) {
      close[num_close++] = node;
    }
  }
  if (num_close > 1) {
    best = close[rng_.UniformInt(0, num_close - 1)];
  }
  const TimeNs start = sim_->Now();
  GetRecord* g = gets_.Acquire(std::move(done));
  g->tries = 1;
  gets_.Hold(g);
  SendGetWithHint(
      best, key, sched::kNoDeadline,
      [this, g, best, start](Status status, DurationNs) {
        const double sample = static_cast<double>(sim_->Now() - start);
        double& score = ewma_ns_[static_cast<size_t>(best)];
        score = (1.0 - kSnitchEwmaAlpha) * score + kSnitchEwmaAlpha * sample;
        Settle(g, status);
        gets_.Drop(g);
      },
      BeginTrace());
}

C3Strategy::C3Strategy(sim::Simulator* sim, cluster::Cluster* cluster, uint64_t seed)
    : GetStrategy(sim, cluster, seed) {
  ewma_ns_.assign(static_cast<size_t>(cluster->num_nodes()), kInitialScoreNs);
  outstanding_.assign(static_cast<size_t>(cluster->num_nodes()), 0);
  last_update_.assign(static_cast<size_t>(cluster->num_nodes()), 0);
}

double C3Strategy::Score(int node) const {
  const auto i = static_cast<size_t>(node);
  // Stale observations decay toward the fleet mean.
  double mean = 0;
  for (const double v : ewma_ns_) {
    mean += v;
  }
  mean /= static_cast<double>(ewma_ns_.size());
  const double age = static_cast<double>(sim_->Now() - last_update_[i]);
  const double freshness = std::exp(-age / static_cast<double>(kC3ScoreDecay));
  const double base = mean + (ewma_ns_[i] - mean) * freshness;
  const double q = 1.0 + outstanding_[i];
  // Cubic penalty on concurrency (C3's q-hat^3 term), scaled by the observed
  // response time as a proxy for the service rate.
  return base + q * q * q * base * 0.1;
}

void C3Strategy::Get(uint64_t key, const GetContext& /*ctx*/, GetDoneFn done) {
  const auto replicas = Replicas(key);
  int best = replicas[0];
  for (const int node : replicas) {
    if (Score(node) < Score(best)) {
      best = node;
    }
  }
  const TimeNs start = sim_->Now();
  ++outstanding_[static_cast<size_t>(best)];
  GetRecord* g = gets_.Acquire(std::move(done));
  g->tries = 1;
  gets_.Hold(g);
  SendGetWithHint(
      best, key, sched::kNoDeadline,
      [this, g, best, start](Status status, DurationNs) {
        --outstanding_[static_cast<size_t>(best)];
        const double sample = static_cast<double>(sim_->Now() - start);
        double& score = ewma_ns_[static_cast<size_t>(best)];
        score = (1.0 - kC3EwmaAlpha) * score + kC3EwmaAlpha * sample;
        last_update_[static_cast<size_t>(best)] = sim_->Now();
        Settle(g, status);
        gets_.Drop(g);
      },
      BeginTrace());
}

}  // namespace mitt::client
