#include "src/lsm/lsm_node.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/resilience/deadline_budget.h"

namespace mitt::lsm {

LsmNode::LsmNode(sim::Simulator* sim, int node_id, const Options& options)
    : sim_(sim), node_id_(node_id), options_(options), degraded_gate_(options.admission) {
  os::OsOptions os_options = options_.os;
  os_options.seed ^= static_cast<uint64_t>(node_id) * 0x2000'0003ULL;
  os_ = std::make_unique<os::Os>(sim_, os_options);
  cpu_ = std::make_unique<cluster::CpuPool>(sim_, options_.cpu_cores);
  lsm_ = std::make_unique<LsmTree>(sim_, os_.get(), options_.lsm);
}

LsmNode::Request* LsmNode::NewRequest(uint64_t key, DurationNs deadline,
                                      kv::RichReplyFn reply) {
  Request* r = requests_.Acquire();
  r->key = key;
  r->deadline = deadline;
  r->reply = std::move(reply);
  return r;
}

void LsmNode::Finish(Request* r, Status status) {
  cpu_->Execute(options_.handler_cpu / 2, [this, r, status] {
    kv::RichReplyFn reply = std::move(r->reply);
    requests_.Release(r);
    reply(status, 0);
  });
}

void LsmNode::HandleGetWithHint(uint64_t key, DurationNs deadline, kv::RichReplyFn reply) {
  Request* r = NewRequest(key, deadline, std::move(reply));
  cpu_->Execute(options_.handler_cpu / 2, [this, r] {
    lsm_->Get(r->key, r->deadline, [this, r](Status s) {
      if (s.busy()) {
        ++ebusy_returned_;
      }
      Finish(r, s);
    });
  });
}

void LsmNode::HandleDegradedGet(uint64_t key, DurationNs deadline, kv::RichReplyFn reply) {
  const obs::TraceContext gate_trace{0, node_id_};
  if (!degraded_gate_.TryAdmit()) {
    if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled()) {
      tr->RecordInstant(obs::SpanKind::kShed, gate_trace, sim_->Now());
    }
    if (obs::MetricsRegistry* m = sim_->metrics()) {
      m->counter("resilience_shed_total", node_id_).Add();
    }
    Finish(NewRequest(key, deadline, std::move(reply)), Status::Unavailable());
    return;
  }
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled()) {
    tr->RecordInstant(obs::SpanKind::kDegradedGet, gate_trace, sim_->Now());
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("resilience_degraded_admit_total", node_id_).Add();
  }
  DurationNs first = resilience::ClampDeadline(deadline);
  if (first < 0 || first > options_.degraded_deadline_cap) {
    first = options_.degraded_deadline_cap;
  }
  Request* r = NewRequest(key, first, std::move(reply));
  cpu_->Execute(options_.handler_cpu / 2, [this, r] { DegradedAttempt(r); });
}

void LsmNode::DegradedAttempt(Request* r) {
  degraded_max_deadline_ = std::max(degraded_max_deadline_, r->deadline);
  lsm_->Get(r->key, r->deadline, [this, r](Status s) {
    if (!s.busy() || r->attempt + 1 >= options_.degraded_max_attempts) {
      degraded_gate_.Release();
      Finish(r, s);
      return;
    }
    // The LSM path exposes no per-request wait hint; wait out the device
    // floor and escalate the (still bounded) deadline.
    const DurationNs wait = os_->MinDeviceLatency();
    r->deadline = std::min(std::max(r->deadline * 2, wait + r->deadline),
                           options_.degraded_deadline_cap);
    ++r->attempt;
    sim_->Schedule(wait, [this, r] { DegradedAttempt(r); });
  });
}

void LsmNode::HandlePut(uint64_t key, std::function<void(Status)> reply) {
  cpu_->Execute(options_.handler_cpu / 2, [this, key, reply = std::move(reply)] {
    lsm_->Put(key, [this, reply = std::move(reply)](Status s) {
      cpu_->Execute(options_.handler_cpu / 2, [reply, s] { reply(s); });
    });
  });
}

}  // namespace mitt::lsm
