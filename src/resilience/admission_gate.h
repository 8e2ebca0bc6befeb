// Server-side brownout gate for degraded (all-replicas-busy) reads.
//
// The paper's last-resort move — re-send with the deadline disabled — trades
// bounded latency for unbounded queueing: under sustained overload every
// client's last try piles onto one replica's queue with no admission control
// at all. The gate makes the degraded path explicit and *bounded*: a node
// accepts at most `capacity` degraded reads at a time; beyond that it
// sheds (Status::Unavailable + its wait hint) so the client can try the next
// replica or back off, instead of growing an invisible convoy. Degraded
// reads that are admitted still carry bounded deadlines (escalated per
// retry, capped) — the deadline is never disabled.

#ifndef MITTOS_RESILIENCE_ADMISSION_GATE_H_
#define MITTOS_RESILIENCE_ADMISSION_GATE_H_

#include <cstdint>

namespace mitt::resilience {

class AdmissionGate {
 public:
  // `capacity`: the most reads admitted at once. Small by design: the
  // degraded path exists to guarantee completion, not throughput.
  explicit AdmissionGate(int capacity) : capacity_(capacity) {}

  // Returns true and takes a slot if the gate has capacity; false = shed.
  bool TryAdmit() {
    if (inflight_ >= capacity_) {
      ++sheds_;
      return false;
    }
    ++inflight_;
    ++admits_;
    return true;
  }

  // Releases a slot taken by TryAdmit (on completion, success or not).
  void Release() { --inflight_; }

  int inflight() const { return inflight_; }
  uint64_t admits() const { return admits_; }
  uint64_t sheds() const { return sheds_; }

 private:
  int capacity_;
  int inflight_ = 0;
  uint64_t admits_ = 0;
  uint64_t sheds_ = 0;
};

}  // namespace mitt::resilience

#endif  // MITTOS_RESILIENCE_ADMISSION_GATE_H_
