#include "src/tenant/controller.h"

#include <algorithm>
#include <cstddef>

namespace mitt::tenant {

PlacementController::PlacementController(sim::ShardedEngine* engine,
                                         const TenantDirectory* directory,
                                         PlacementMap* placement, int num_nodes, ProbeFn probe,
                                         const PlacementControllerOptions& options)
    : engine_(engine),
      directory_(directory),
      placement_(placement),
      num_nodes_(num_nodes),
      probe_(std::move(probe)),
      options_(options),
      health_(engine->shard(0), num_nodes, options.health, options.seed),
      prev_(static_cast<size_t>(num_nodes)),
      prev_tenant_gets_(static_cast<size_t>(num_nodes) * directory->num_tenants(), 0),
      pressure_(static_cast<size_t>(num_nodes), 0.0),
      win_dispatches_(static_cast<size_t>(num_nodes), 0),
      load_(static_cast<size_t>(num_nodes), 0.0),
      tenant_rate_(directory->num_tenants(), 0),
      weight_(directory->num_tenants(), 1.0),
      cooldown_until_tick_(directory->num_tenants(), 0) {
  drain_list_.reserve(directory->num_tenants());
  for (TenantId t = 0; t < directory->num_tenants(); ++t) {
    weight_[t] = directory->cls(directory->class_of(t)).weight;
  }
}

void PlacementController::Start() { Arm(engine_->Now() + options_.period); }

void PlacementController::Arm(TimeNs when) {
  // Ticks run at a quiesced barrier (every shard parked, so the probe reads
  // and the placement writes race with nothing) and never keep the run alive.
  engine_->ScheduleGlobal(when, [this, when] {
    TickOnce();
    Arm(when + options_.period);
  });
}

void PlacementController::TickOnce() {
  ++ticks_;
  const uint32_t num_tenants = directory_->num_tenants();
  std::fill(tenant_rate_.begin(), tenant_rate_.end(), 0);

  // Probe every node, diff against the previous probe, fold the window into
  // the health tracker.
  double pressure_sum = 0.0;
  for (int i = 0; i < num_nodes_; ++i) {
    const size_t ni = static_cast<size_t>(i);
    const NodeProbe p = probe_(i);
    NodeCum& prev = prev_[ni];
    const uint64_t d_wait = p.wait_sum_ns - prev.wait_sum_ns;
    const uint64_t d_disp = p.dispatches - prev.dispatches;
    const uint64_t d_gets = p.gets - prev.gets;
    const uint64_t d_ebusy = p.ebusy - prev.ebusy;
    prev.wait_sum_ns = p.wait_sum_ns;
    prev.dispatches = p.dispatches;
    prev.gets = p.gets;
    prev.ebusy = p.ebusy;

    pressure_[ni] = d_disp > 0 ? static_cast<double>(d_wait) / static_cast<double>(d_disp) : 0.0;
    win_dispatches_[ni] = d_disp;
    load_[ni] = static_cast<double>(d_gets);
    pressure_sum += pressure_[ni];
    // The window's mean queueing delay doubles as the health tracker's
    // latency sample: fail-slow nodes show it even when they never EBUSY.
    health_.OnWindow(i, d_gets, d_ebusy, static_cast<DurationNs>(pressure_[ni]));

    if (p.tenant_gets != nullptr) {
      const uint32_t count = p.tenant_count < num_tenants ? p.tenant_count : num_tenants;
      uint64_t* prev_tg = prev_tenant_gets_.data() + ni * num_tenants;
      double weighted_load = 0.0;
      for (uint32_t t = 0; t < count; ++t) {
        const uint64_t cum = p.tenant_gets[t];
        const uint64_t d_tg = cum - prev_tg[t];
        tenant_rate_[t] += d_tg;
        weighted_load += weight_[t] * static_cast<double>(d_tg);
        prev_tg[t] = cum;
      }
      // Weight-aware load units: a gold get occupies `weight` units of a
      // node's capacity share, so a node serving few-but-gold tenants reads
      // as loaded as one serving many bronze mice.
      if (options_.weight_aware) {
        load_[ni] = weighted_load;
      }
    }
  }

  // Hot = pressure well above the cluster mean on a trustworthy window, or a
  // breaker the window data just opened.
  const double mean_pressure = pressure_sum / static_cast<double>(num_nodes_);
  bool any_hot = false;
  auto is_hot = [&](int i) {
    const size_t ni = static_cast<size_t>(i);
    if (health_.state(i) == resilience::BreakerState::kOpen) {
      return true;
    }
    return win_dispatches_[ni] >= options_.min_window_dispatches &&
           pressure_[ni] >= static_cast<double>(options_.pressure_floor) &&
           pressure_[ni] > options_.overload_factor * mean_pressure;
  };
  for (int i = 0; i < num_nodes_; ++i) {
    if (is_hot(i)) {
      any_hot = true;
      break;
    }
  }
  if (!any_hot) {
    return;
  }
  ++hot_ticks_;

  // Target load: what an average healthy node carries this window, and the
  // healthy pressure baseline the hot nodes are judged against.
  double healthy_load = 0.0;
  double healthy_pressure = 0.0;
  int healthy_nodes = 0;
  for (int i = 0; i < num_nodes_; ++i) {
    if (!is_hot(i)) {
      healthy_load += load_[static_cast<size_t>(i)];
      healthy_pressure += pressure_[static_cast<size_t>(i)];
      ++healthy_nodes;
    }
  }
  if (healthy_nodes == 0) {
    return;  // Every node is hot: there is no safe destination.
  }
  const double target_load = healthy_load / healthy_nodes;
  const double baseline_pressure = healthy_pressure / healthy_nodes;

  // Hot nodes drain in descending pressure order (worst first), stable by id.
  std::vector<int> hot;
  for (int i = 0; i < num_nodes_; ++i) {
    if (is_hot(i)) {
      hot.push_back(i);
    }
  }
  std::stable_sort(hot.begin(), hot.end(), [this](int a, int b) {
    return pressure_[static_cast<size_t>(a)] > pressure_[static_cast<size_t>(b)];
  });

  int budget = options_.max_migrations_per_tick;
  const int repl = placement_->replication();
  for (int h : hot) {
    if (budget <= 0) {
      break;
    }
    // Tenants homed on h, strictest class first, then biggest window rate:
    // moving one whale relieves more pressure than a hundred mice, and the
    // strict classes get first claim on the healthy capacity.
    drain_list_.clear();
    for (TenantId t = 0; t < num_tenants; ++t) {
      if (placement_->primary(t) == h && cooldown_until_tick_[t] <= ticks_) {
        drain_list_.push_back(t);
      }
    }
    // Within a priority tier the drain rate is measured in the same units as
    // keep_load: weighted gets when weight_aware (a weight-8 whale at 3 gets
    // outranks a weight-1 mouse at 5), raw gets otherwise.
    auto drain_rate = [this](TenantId t) {
      const double rate = static_cast<double>(tenant_rate_[t]);
      return options_.weight_aware ? weight_[t] * rate : rate;
    };
    std::stable_sort(drain_list_.begin(), drain_list_.end(),
                     [this, &drain_rate](TenantId a, TenantId b) {
                       const int8_t pa = directory_->priority_of(a);
                       const int8_t pb = directory_->priority_of(b);
                       if (pa != pb) {
                         return pa < pb;
                       }
                       return drain_rate(a) > drain_rate(b);
                     });

    // How much load this node should keep. A noisy-neighbor node serves gets
    // at a normal *rate* while imposing many times the healthy queueing
    // delay, so get-load alone would say "not overloaded" and drain nothing;
    // scale the healthy average down by the node's slowdown instead. A
    // breaker-open node keeps nothing.
    double keep_load = 0.0;
    if (health_.state(h) != resilience::BreakerState::kOpen) {
      const double slowdown =
          baseline_pressure > 0.0 ? pressure_[static_cast<size_t>(h)] / baseline_pressure : 1.0;
      keep_load = slowdown > 1.0 ? target_load / slowdown : target_load;
    }

    for (TenantId t : drain_list_) {
      if (budget <= 0 || load_[static_cast<size_t>(h)] <= keep_load) {
        break;
      }
      // Destination group: the `replication` least-loaded healthy nodes.
      ReplicaGroup g;
      g.size = repl;
      bool ok = true;
      for (int r = 0; r < repl; ++r) {
        int best = -1;
        for (int i = 0; i < num_nodes_; ++i) {
          if (i == h || is_hot(i)) {
            continue;
          }
          bool taken = false;
          for (int k = 0; k < r; ++k) {
            if (g.node[k] == i) {
              taken = true;
              break;
            }
          }
          if (taken) {
            continue;
          }
          if (best < 0 || load_[static_cast<size_t>(i)] < load_[static_cast<size_t>(best)]) {
            best = i;
          }
        }
        if (best < 0) {
          ok = false;  // Fewer healthy nodes than replicas: stop draining.
          break;
        }
        g.node[r] = best;
      }
      if (!ok) {
        break;
      }
      placement_->Assign(t, g);
      const double moved = drain_rate(t);
      load_[static_cast<size_t>(h)] -= moved;
      load_[static_cast<size_t>(g.node[0])] += moved;
      cooldown_until_tick_[t] = ticks_ + static_cast<uint64_t>(options_.tenant_cooldown_ticks);
      ++migrations_;
      --budget;
    }
  }
}

}  // namespace mitt::tenant
