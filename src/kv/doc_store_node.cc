#include "src/kv/doc_store_node.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/resilience/deadline_budget.h"

namespace mitt::kv {

DocStoreNode::DocStoreNode(sim::Simulator* sim, int node_id, const Options& options,
                           cluster::CpuPool* shared_cpu)
    : sim_(sim), node_id_(node_id), options_(options), degraded_gate_(options.admission) {
  os::OsOptions os_options = options_.os;
  os_options.seed ^= static_cast<uint64_t>(node_id) * 0x1000'0001ULL;
  os_options.node_label = node_id;
  os_ = std::make_unique<os::Os>(sim_, os_options);
  if (shared_cpu != nullptr) {
    cpu_ = shared_cpu;
  } else {
    owned_cpu_ = std::make_unique<cluster::CpuPool>(sim_, options_.cpu_cores);
    cpu_ = owned_cpu_.get();
  }
  data_file_ = os_->CreateFile(data_file_size());
  if (options_.tenant_slots > 0) {
    tenant_gets_.assign(options_.tenant_slots, 0);
    tenant_ebusy_.assign(options_.tenant_slots, 0);
  }
}

void DocStoreNode::WarmCache(double fraction) {
  const auto warm_keys =
      static_cast<int64_t>(static_cast<double>(options_.num_keys) * fraction);
  for (int64_t k = 0; k < warm_keys; ++k) {
    os_->Prefault(data_file_, k * options_.slot_size, options_.doc_size);
  }
}

void DocStoreNode::Pause(DurationNs duration) { cpu_->PauseFor(duration); }

void DocStoreNode::CrashRestart(DurationNs downtime) {
  ++crashes_;
  // The process image is gone: restart with a cold page cache, and stall all
  // request handling for the downtime.
  os_->DropCachedFraction(1.0);
  cpu_->PauseFor(downtime);
}

DocStoreNode::Request* DocStoreNode::NewRequest(uint64_t key, DurationNs deadline,
                                                obs::TraceContext trace, RichReplyFn reply) {
  Request* r = requests_.Acquire();
  r->key = key;
  r->deadline = deadline;
  r->trace = trace;
  r->reply = std::move(reply);
  return r;
}

void DocStoreNode::Respond(Request* r, Status status, DurationNs hint) {
  RichReplyFn reply = std::move(r->reply);
  requests_.Release(r);
  reply(status, hint);
}

void DocStoreNode::HandleGetWithHint(uint64_t key, DurationNs deadline, RichReplyFn reply,
                                     obs::TraceContext trace, uint32_t tenant) {
  ++gets_served_;
  if (tenant < tenant_gets_.size()) {
    ++tenant_gets_[tenant];
  }
  Request* r = NewRequest(key, deadline, trace, std::move(reply));
  r->tenant = tenant;
  cpu_->Execute(options_.handler_cpu / 2, [this, r] { DoRead(r); });
}

void DocStoreNode::DoRead(Request* r) {
  const int64_t offset = OffsetOfKey(r->key);
  if (options_.access == AccessPath::kMmapAddrCheck) {
    const auto check = os_->AddrCheck(data_file_, offset, options_.doc_size, r->deadline, r->trace);
    if (check.status.busy()) {
      // Fail over instantly; the OS keeps swapping the page in behind us.
      // The wait hint is the device floor (the page must come off the disk).
      const DurationNs hint = os_->MinDeviceLatency();
      sim_->Schedule(check.cost, [this, r, hint] { Finish(r, Status::Ebusy(), hint); });
      return;
    }
    sim_->Schedule(check.cost, [this, r, offset] {
      os_->MmapAccess(data_file_, offset, options_.doc_size, options_.server_pid,
                      [this, r](Status s, DurationNs) { Finish(r, s, 0); });
    });
    return;
  }

  os::Os::ReadArgs args;
  args.file = data_file_;
  args.offset = offset;
  args.size = options_.doc_size;
  args.deadline = r->deadline;
  args.pid = options_.server_pid;
  args.trace = r->trace;
  os_->ReadWithWaitHint(args, [this, r](Status s, DurationNs hint) { Finish(r, s, hint); });
}

void DocStoreNode::Finish(Request* r, Status status, DurationNs hint) {
  if (status.busy()) {
    ++ebusy_returned_;
    if (r->tenant < tenant_ebusy_.size()) {
      ++tenant_ebusy_[r->tenant];
    }
  }
  // Reply serialization plus (optionally) the C++ exception unwind the
  // paper eliminated with the exceptionless retry path.
  DurationNs cost = options_.handler_cpu / 2;
  if (status.busy() && options_.exception_on_ebusy) {
    cost += options_.exception_cost;
  }
  cpu_->Execute(cost, [this, r, status, hint] { Respond(r, status, hint); });
}

void DocStoreNode::HandleDegradedGet(uint64_t key, DurationNs deadline, RichReplyFn reply,
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
    cpu_->Execute(options_.handler_cpu / 2,
                  [this, r, hint] { Respond(r, Status::Unavailable(), hint); });
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
  if (first < 0 || first > options_.degraded_deadline_cap) {
    first = options_.degraded_deadline_cap;
  }
  Request* r = NewRequest(key, first, trace, std::move(reply));
  cpu_->Execute(options_.handler_cpu / 2, [this, r] { DegradedAttempt(r); });
}

void DocStoreNode::DegradedAttempt(Request* r) {
  degraded_max_deadline_ = std::max(degraded_max_deadline_, r->deadline);
  os::Os::ReadArgs args;
  args.file = data_file_;
  args.offset = OffsetOfKey(r->key);
  args.size = options_.doc_size;
  args.deadline = r->deadline;
  args.pid = options_.server_pid;
  args.trace = r->trace;
  os_->ReadWithWaitHint(args, [this, r](Status s, DurationNs hint) {
    if (!s.busy() || r->attempt + 1 >= options_.degraded_max_attempts) {
      // Done (success, or attempts exhausted — surface the last status;
      // with the escalation below the deadline reaches the cap long
      // before the attempt limit, so exhaustion means a real outage).
      degraded_gate_.Release();
      cpu_->Execute(options_.handler_cpu / 2, [this, r, s, hint] { Respond(r, s, hint); });
      return;
    }
    // EBUSY: the predictor says the queue needs ~hint to drain. Wait it
    // out (the admission slot stays held — that is the "queue server-side
    // behind the gate" part), then re-issue with an escalated, still
    // bounded deadline.
    DurationNs next = std::max(r->deadline * 2, hint + r->deadline);
    r->deadline = std::min(next, options_.degraded_deadline_cap);
    ++r->attempt;
    const DurationNs wait = std::max<DurationNs>(hint, Micros(50));
    sim_->Schedule(wait, [this, r] { DegradedAttempt(r); });
  });
}

void DocStoreNode::HandlePut(uint64_t key, std::function<void(Status)> reply) {
  cpu_->Execute(options_.handler_cpu / 2, [this, key, reply = std::move(reply)] {
    os::Os::WriteArgs args;
    args.file = data_file_;
    args.offset = OffsetOfKey(key);
    args.size = options_.doc_size;
    args.pid = options_.server_pid;
    os_->Write(args, [this, reply](Status s) {
      cpu_->Execute(options_.handler_cpu / 2, [reply, s] { reply(s); });
    });
  });
}

}  // namespace mitt::kv
