#include "src/storage/block_device.h"

#include <utility>

namespace ursa::storage {

void BlockDevice::Submit(IoRequest req) {
  if (gate_ != nullptr) {
    if (req.type == IoType::kWrite) {
      // Apply the payload now so scheduler reordering stays timing-only:
      // data visibility keeps submission order, matching the ungated path
      // where every device model applies bytes at SubmitIo. Dropping the
      // payload refs afterwards releases buffers while the request queues
      // and keeps the device model from re-applying.
      ApplyWritePayload(store_, req);
      req.data = nullptr;
      req.scatter.clear();
      req.hold = BufferView();
      req.hold2 = BufferView();
    }
    gate_->OnSubmit(std::move(req));
    return;
  }
  Admit(std::move(req));
}

void BlockDevice::Admit(IoRequest req) {
  if (observer_ && req.done) {
    // Measure admit→completion. A stuck-fault hold is part of the measured
    // latency (requests held until heal complete with the hold included) —
    // stuck disks must look catastrophically slow to the health monitor.
    Nanos start = sim_->Now();
    qos::ServiceClass cls = EffectiveClass(req);
    IoType type = req.type;
    IoCallback inner = std::move(req.done);
    req.done = [this, start, cls, type, inner = std::move(inner)](const Status& s) {
      observer_(cls, type, sim_->Now() - start);
      inner(s);
    };
  }
  if (fault_.stuck) {
    ++fault_stuck_ops_;
    held_.push_back(std::move(req));
    return;
  }
  Dispatch(std::move(req));
}

void BlockDevice::Dispatch(IoRequest req) {
  if (fault_.extra_latency > 0) {
    ++fault_delayed_ops_;
    sim_->After(fault_.extra_latency,
                [this, req = std::move(req)]() mutable { SubmitIo(std::move(req)); });
    return;
  }
  SubmitIo(std::move(req));
}

void BlockDevice::SetFault(const DeviceFault& fault) {
  bool was_stuck = fault_.stuck;
  fault_ = fault;
  if (was_stuck && !fault_.stuck && !held_.empty()) {
    // Release in arrival order through the (possibly still slow) fault path.
    // Dispatch (not Submit/Admit): these requests already won QoS arbitration
    // and carry their observer wrapping from original admission — re-entering
    // Admit would double-count dispatches and double-record latencies.
    std::vector<IoRequest> held;
    held.swap(held_);
    for (auto& req : held) {
      Dispatch(std::move(req));
    }
  }
}

}  // namespace ursa::storage
