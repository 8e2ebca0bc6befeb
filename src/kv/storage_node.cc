#include "src/kv/storage_node.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/resilience/deadline_budget.h"

namespace mitt::kv {

StorageNode::StorageNode(sim::Simulator* sim, int node_id, const Options& options,
                         uint64_t seed_salt, cluster::CpuPool* shared_cpu, bool exception_on_ebusy)
    : sim_(sim),
      node_id_(node_id),
      handler_cpu_(options.handler_cpu),
      exception_on_ebusy_(exception_on_ebusy),
      tenant_gets_(options.tenant_slots, 0) {
  os::OsOptions os_options = options.os;
  os_options.seed ^= static_cast<uint64_t>(node_id) * seed_salt;
  os_options.node_label = node_id;
  os_ = std::make_unique<os::Os>(sim_, os_options);
  if (shared_cpu != nullptr) {
    cpu_ = shared_cpu;
  } else {
    owned_cpu_ = std::make_unique<cluster::CpuPool>(sim_, options.cpu_cores);
    cpu_ = owned_cpu_.get();
  }
}

void StorageNode::Pause(DurationNs duration) { cpu_->PauseFor(duration); }

void StorageNode::CrashRestart(DurationNs downtime) {
  // The process image is gone: restart with a cold page cache, and stall all
  // request handling for the downtime.
  os_->DropCachedFraction(1.0);
  cpu_->PauseFor(downtime);
}

StorageNode::Request* StorageNode::NewRequest(uint64_t key, DurationNs deadline,
                                              obs::TraceContext trace, RichReplyFn reply) {
  Request* r = requests_.Acquire();
  r->key = key;
  r->deadline = deadline;
  r->trace = trace;
  r->reply = std::move(reply);
  return r;
}

void StorageNode::Respond(Request* r, Status status, DurationNs hint) {
  RichReplyFn reply = std::move(r->reply);
  requests_.Release(r);
  reply(status, hint);
}

void StorageNode::HandleGetWithHint(uint64_t key, DurationNs deadline, RichReplyFn reply,
                                    obs::TraceContext trace, tenant::TenantId tenant) {
  ++gets_served_;
  if (tenant < tenant_gets_.size()) {
    ++tenant_gets_[tenant];
  }
  Request* r = NewRequest(key, deadline, trace, std::move(reply));
  cpu_->Execute(handler_cpu_ / 2, [this, r] { Read(r); });
}

void StorageNode::ReadDone(Request* r, Status status, DurationNs hint) {
  if (!r->degraded) {
    Finish(r, status, hint);
    return;
  }
  if (!status.busy() || r->attempt + 1 >= kDegradedMaxAttempts) {
    // Done (success, or attempts exhausted — surface the last status; with
    // the escalation below the deadline reaches the cap long before the
    // attempt limit, so exhaustion means a real outage).
    degraded_gate_.Release();
    cpu_->Execute(handler_cpu_ / 2, [this, r, status, hint] { Respond(r, status, hint); });
    return;
  }
  // EBUSY: the store says the queue needs ~hint to drain. Wait it out (the
  // admission slot stays held — that is the "queue server-side behind the
  // gate" part), then re-issue with an escalated, still bounded deadline.
  r->deadline = std::min(std::max(r->deadline * 2, hint + r->deadline), kDegradedDeadlineCap);
  ++r->attempt;
  const DurationNs wait = std::max<DurationNs>(hint, Micros(50));
  sim_->Schedule(wait, [this, r] { DegradedAttempt(r); });
}

void StorageNode::Finish(Request* r, Status status, DurationNs hint) {
  // Reply serialization plus (optionally) the C++ exception unwind the
  // paper eliminated with the exceptionless retry path.
  DurationNs cost = handler_cpu_ / 2;
  if (status.busy()) {
    ++ebusy_returned_;
    if (exception_on_ebusy_) {
      cost += kEbusyExceptionCost;
    }
  }
  cpu_->Execute(cost, [this, r, status, hint] { Respond(r, status, hint); });
}

void StorageNode::HandleDegradedGet(uint64_t key, DurationNs deadline, RichReplyFn reply,
                                    obs::TraceContext trace) {
  ++gets_served_;
  const obs::TraceContext server_trace{trace.id, node_id_};
  if (!degraded_gate_.TryAdmit()) {
    // Shed: the degraded path is already at capacity. Reply as fast as an
    // EBUSY reject, with the device floor as the wait hint, so the client
    // walks on instead of queueing invisibly behind the convoy.
    if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled()) {
      tr->RecordInstant(obs::SpanKind::kShed, server_trace, sim_->Now());
    }
    if (obs::MetricsRegistry* m = sim_->metrics()) {
      m->counter("resilience_shed_total", node_id_).Add();
    }
    const DurationNs hint = os_->MinDeviceLatency();
    Request* r = NewRequest(key, deadline, trace, std::move(reply));
    cpu_->Execute(handler_cpu_ / 2, [this, r, hint] { Respond(r, Status::Unavailable(), hint); });
    return;
  }
  if (obs::Tracer* tr = sim_->tracer(); tr != nullptr && tr->enabled()) {
    tr->RecordInstant(obs::SpanKind::kDegradedGet, server_trace, sim_->Now());
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("resilience_degraded_admit_total", node_id_).Add();
  }
  // Bounded-deadline discipline: negative values clamp to 0 (kNoDeadline must
  // not sneak through the degraded path), and nothing exceeds the cap.
  DurationNs first = resilience::ClampDeadline(deadline);
  if (first < 0 || first > kDegradedDeadlineCap) {
    first = kDegradedDeadlineCap;
  }
  Request* r = NewRequest(key, first, trace, std::move(reply));
  r->degraded = true;
  cpu_->Execute(handler_cpu_ / 2, [this, r] { DegradedAttempt(r); });
}

void StorageNode::DegradedAttempt(Request* r) {
  degraded_max_deadline_ = std::max(degraded_max_deadline_, r->deadline);
  Read(r);
}

void StorageNode::HandlePut(uint64_t key, RichReplyFn reply) {
  Request* r = NewRequest(key, sched::kNoDeadline, {}, std::move(reply));
  cpu_->Execute(handler_cpu_ / 2, [this, r] { Write(r); });
}

void StorageNode::WriteDone(Request* r, Status status) {
  cpu_->Execute(handler_cpu_ / 2, [this, r, status] { Respond(r, status, 0); });
}

}  // namespace mitt::kv
