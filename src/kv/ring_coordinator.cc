#include "src/kv/ring_coordinator.h"

#include <algorithm>

namespace mitt::kv {

RingCoordinator::RingCoordinator(sim::Simulator* sim, std::vector<lsm::LsmNode*> nodes,
                                 cluster::Network* network, const Options& options)
    : sim_(sim),
      nodes_(std::move(nodes)),
      network_(network),
      options_(options),
      home_shard_(sim->shard_id()) {
  if (options_.resilience_enabled) {
    health_ = std::make_unique<resilience::ReplicaHealthTracker>(
        sim_, static_cast<int>(nodes_.size()), options_.health, options_.seed ^ 0x51A6'B07DULL);
    backoff_ = std::make_unique<resilience::DecorrelatedJitterBackoff>(
        options_.backoff, options_.seed ^ 0x0FF5'E77AULL);
  }
}

std::vector<int> RingCoordinator::ReplicasOf(uint64_t key) const {
  std::vector<int> replicas;
  const uint64_t mixed = key * 0xC2B2'AE3D'27D4'EB4FULL;
  const int primary = static_cast<int>(mixed % nodes_.size());
  for (int r = 0; r < options_.replication; ++r) {
    replicas.push_back((primary + r) % static_cast<int>(nodes_.size()));
  }
  return replicas;
}

// One resilient get: the deadline budget, health-ordered walk, and degraded
// fallback state shared across its hops.
struct RingCoordinator::GetState {
  uint64_t key = 0;
  std::vector<int> replicas;
  size_t next = 0;
  resilience::DeadlineBudget budget{0, 0};
  std::shared_ptr<std::function<void(Status)>> done;
  Status last_status = Status::Unavailable();
};

void RingCoordinator::Get(uint64_t key, std::function<void(Status)> done) {
  auto shared_done = std::make_shared<std::function<void(Status)>>(std::move(done));
  if (!options_.resilience_enabled) {
    Attempt(key, 0, std::move(shared_done));
    return;
  }
  auto g = std::make_shared<GetState>();
  g->key = key;
  g->replicas = ReplicasOf(key);
  health_->OrderReplicas(g->replicas);
  g->budget = resilience::DeadlineBudget(options_.mitt_enabled ? options_.deadline
                                                               : sched::kNoDeadline,
                                         sim_->Now());
  g->done = std::move(shared_done);
  ResilientAttempt(std::move(g));
}

void RingCoordinator::Attempt(uint64_t key, int try_index,
                              std::shared_ptr<std::function<void(Status)>> done) {
  const auto replicas = ReplicasOf(key);
  const bool last_try = try_index + 1 >= static_cast<int>(replicas.size());
  const DurationNs deadline =
      (options_.mitt_enabled && !last_try) ? options_.deadline : sched::kNoDeadline;
  if (options_.mitt_enabled && last_try) {
    ++unbounded_tries_;
  }
  lsm::LsmNode* node = nodes_[static_cast<size_t>(replicas[static_cast<size_t>(try_index)])];
  // Request hop onto the replica's shard, reply hop back to the
  // coordinator's home shard (where `done` and the failover walk live).
  network_->Deliver(cluster::Network::kNoPeer, NodeShard(node),
                    [this, node, key, deadline, try_index, done] {
    node->HandleGet(key, deadline, [this, key, try_index, done](Status status) {
      network_->Deliver(cluster::Network::kNoPeer, home_shard_,
                        [this, key, try_index, done, status] {
        if (status.busy()) {
          ++failovers_;
          Attempt(key, try_index + 1, done);
          return;
        }
        (*done)(status);
      });
    });
  });
}

void RingCoordinator::ResilientAttempt(std::shared_ptr<GetState> g) {
  if (g->next >= g->replicas.size() || g->budget.Exhausted(sim_->Now())) {
    // Every replica rejected (or the SLO is already gone): degraded path,
    // never a deadline-disabled blast.
    DegradedAttempt(std::move(g), 0);
    return;
  }
  const size_t index = g->next++;
  lsm::LsmNode* node = nodes_[static_cast<size_t>(g->replicas[index])];
  const int replica = g->replicas[index];
  // Each hop carries only what is left of the SLO, clamped at 0.
  const DurationNs remaining = resilience::ClampDeadline(g->budget.Remaining(sim_->Now()));
  if (remaining >= 0) {
    max_sent_deadline_ = std::max(max_sent_deadline_, remaining);
  }
  const TimeNs sent_at = sim_->Now();
  network_->Deliver(cluster::Network::kNoPeer, NodeShard(node),
                    [this, node, g, remaining, replica, sent_at] {
    node->HandleGet(g->key, remaining, [this, g, replica, sent_at](Status status) {
      network_->Deliver(cluster::Network::kNoPeer, home_shard_,
                        [this, g, replica, sent_at, status] {
        health_->OnReply(replica, sim_->Now() - sent_at, status.busy());
        if (status.busy()) {
          ++failovers_;
          ResilientAttempt(g);
          return;
        }
        (*g->done)(status);
      });
    });
  });
}

void RingCoordinator::DegradedAttempt(std::shared_ptr<GetState> g, int round) {
  // Walk replicas in health order through the bounded degraded path; a shed
  // moves to the next replica, a fully-shed walk backs off and re-walks.
  auto walk = std::make_shared<size_t>(0);
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, g, round, walk, step] {
    if (*walk >= g->replicas.size()) {
      if (round + 1 >= options_.degraded_max_rounds) {
        (*g->done)(g->last_status);
        *step = nullptr;
        return;
      }
      const DurationNs delay = backoff_->Next();
      sim_->Schedule(delay, [this, g, round] { DegradedAttempt(g, round + 1); });
      *step = nullptr;
      return;
    }
    const size_t index = (*walk)++;
    lsm::LsmNode* node = nodes_[static_cast<size_t>(g->replicas[index])];
    ++degraded_gets_;
    // At least the full SLO, bounded; the node escalates (capped) from there.
    const DurationNs deadline =
        std::max(resilience::ClampDeadline(g->budget.Remaining(sim_->Now())), options_.deadline);
    max_sent_deadline_ = std::max(max_sent_deadline_, deadline);
    network_->Deliver(cluster::Network::kNoPeer, NodeShard(node),
                      [this, node, g, deadline, step] {
      node->HandleDegradedGet(g->key, deadline, [this, g, step](Status status) {
        network_->Deliver(cluster::Network::kNoPeer, home_shard_,
                          [this, g, step, status] {
          g->last_status = status;
          if (status.code() == StatusCode::kUnavailable) {
            ++degraded_sheds_seen_;
            (*step)();
            return;
          }
          (*g->done)(status);
          *step = nullptr;
        });
      });
    });
  };
  (*step)();
}

void RingCoordinator::Put(uint64_t key, std::function<void(Status)> done) {
  const auto replicas = ReplicasOf(key);
  auto first = std::make_shared<bool>(true);
  auto shared_done = std::make_shared<std::function<void(Status)>>(std::move(done));
  for (const int r : replicas) {
    lsm::LsmNode* node = nodes_[static_cast<size_t>(r)];
    network_->Deliver(cluster::Network::kNoPeer, NodeShard(node),
                      [this, node, key, first, shared_done] {
      node->HandlePut(key, [this, first, shared_done](Status s) {
        network_->Deliver(cluster::Network::kNoPeer, home_shard_,
                          [first, shared_done, s] {
          if (*first) {
            *first = false;
            (*shared_done)(s);
          }
        });
      });
    });
  }
}

}  // namespace mitt::kv
