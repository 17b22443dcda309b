// Abstract asynchronous block device.
//
// Three implementations:
//   MemDevice  — completes instantly (next event tick); used by unit tests so
//                protocol/journal logic is exercised with real bytes.
//   SsdModel   — multi-channel queueing model of a PCIe SSD.
//   HddModel   — seek + rotation + transfer model with elevator scheduling.
#ifndef URSA_STORAGE_BLOCK_DEVICE_H_
#define URSA_STORAGE_BLOCK_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/simulator.h"
#include "src/storage/io_request.h"

namespace ursa::storage {

// Gray-failure state injectable on any device (see DESIGN.md "Fault model &
// chaos harness"). Unlike a crash, the device keeps accepting requests — it
// just serves them pathologically. Modelled after field reports of fail-slow
// hardware ("Gray Failure", HotOS '17).
struct DeviceFault {
  // Added to every request before it reaches the device model — a slow disk
  // (degraded media, firmware retry storms) rather than a dead one.
  Nanos extra_latency = 0;
  // Stuck I/O: requests are admitted but held indefinitely; they complete
  // only after the fault is cleared. Upper layers see this as requests that
  // never return — the hardest gray failure to distinguish from a crash.
  bool stuck = false;
};

// Sparse page-granular byte store backing devices that carry real data.
// Pages materialize on first write; reads of untouched pages return zeros, so
// a store holds RAM only for pages that hold data.
class PageStore {
 public:
  static constexpr uint64_t kPageSize = 4096;

  void Write(uint64_t offset, const void* data, uint64_t length);
  void Read(uint64_t offset, void* out, uint64_t length) const;
  // Writes `length` zero bytes. Not a no-op: pages may hold earlier data
  // (ring journals reuse space), so the zeros must land.
  void WriteZeros(uint64_t offset, uint64_t length);
  // TRIM: afterwards every byte of the range reads back as zero. Pages the
  // range covers whole are dropped; a partly covered page is zeroed in place
  // and dropped too once it holds no non-zero byte.
  void Discard(uint64_t offset, uint64_t length);

  size_t allocated_pages() const { return pages_.size(); }

 private:
  std::unordered_map<uint64_t, std::vector<uint8_t>> pages_;
};

inline void PageStore::Write(uint64_t offset, const void* data, uint64_t length) {
  const auto* src = static_cast<const uint8_t*>(data);
  while (length > 0) {
    uint64_t page = offset / kPageSize;
    uint64_t in_page = offset % kPageSize;
    uint64_t n = std::min(kPageSize - in_page, length);
    auto& bytes = pages_[page];
    if (bytes.empty()) {
      bytes.assign(kPageSize, 0);
    }
    std::copy(src, src + n, bytes.begin() + static_cast<ptrdiff_t>(in_page));
    src += n;
    offset += n;
    length -= n;
  }
}

inline void PageStore::WriteZeros(uint64_t offset, uint64_t length) {
  while (length > 0) {
    uint64_t page = offset / kPageSize;
    uint64_t in_page = offset % kPageSize;
    uint64_t n = std::min(kPageSize - in_page, length);
    auto it = pages_.find(page);
    if (it != pages_.end()) {
      std::fill(it->second.begin() + static_cast<ptrdiff_t>(in_page),
                it->second.begin() + static_cast<ptrdiff_t>(in_page + n), uint8_t{0});
    }
    // Untouched pages already read back as zeros; no need to materialize them.
    offset += n;
    length -= n;
  }
}

inline void PageStore::Discard(uint64_t offset, uint64_t length) {
  while (length > 0) {
    uint64_t page = offset / kPageSize;
    uint64_t in_page = offset % kPageSize;
    uint64_t n = std::min(kPageSize - in_page, length);
    auto it = pages_.find(page);
    if (it != pages_.end()) {
      std::vector<uint8_t>& bytes = it->second;
      if (n < kPageSize) {
        std::fill(bytes.begin() + static_cast<ptrdiff_t>(in_page),
                  bytes.begin() + static_cast<ptrdiff_t>(in_page + n), uint8_t{0});
      }
      // All-zero test: the first byte is zero and every byte equals its
      // successor (one memcmp instead of a byte loop).
      if (n == kPageSize ||
          (bytes[0] == 0 && std::memcmp(bytes.data(), bytes.data() + 1, kPageSize - 1) == 0)) {
        pages_.erase(it);
      }
    }
    offset += n;
    length -= n;
  }
}

// Applies a write request's payload to a PageStore, handling both the
// contiguous (`data`) and scatter-gather (`scatter`) forms. Shared by every
// device model that carries real bytes.
inline void ApplyWritePayload(PageStore& store, const IoRequest& req) {
  if (!req.scatter.empty()) {
    uint64_t offset = req.offset;
    for (const IoSegment& seg : req.scatter) {
      if (seg.data != nullptr) {
        store.Write(offset, seg.data, seg.length);
      } else {
        store.WriteZeros(offset, seg.length);
      }
      offset += seg.length;
    }
    return;
  }
  if (req.data != nullptr) {
    store.Write(req.offset, req.data, req.length);
  }
}

inline void PageStore::Read(uint64_t offset, void* out, uint64_t length) const {
  auto* dst = static_cast<uint8_t*>(out);
  while (length > 0) {
    uint64_t page = offset / kPageSize;
    uint64_t in_page = offset % kPageSize;
    uint64_t n = std::min(kPageSize - in_page, length);
    auto it = pages_.find(page);
    if (it == pages_.end()) {
      std::fill(dst, dst + n, 0);
    } else {
      std::copy(it->second.begin() + static_cast<ptrdiff_t>(in_page),
                it->second.begin() + static_cast<ptrdiff_t>(in_page + n), dst);
    }
    dst += n;
    offset += n;
    length -= n;
  }
}

// Admission gate a QoS scheduler installs in front of a device. When a gate
// is attached, BlockDevice::Submit hands every request to the gate instead of
// the device model; the gate classifies/queues/throttles it and eventually
// dispatches via BlockDevice::Admit. Defined here (not in src/qos) so storage
// does not link against the scheduler — qos::IoScheduler implements it.
class IoGate {
 public:
  virtual ~IoGate() = default;
  virtual void OnSubmit(IoRequest req) = 0;

  // Backpressure toward background producers: `ShouldThrottle` is true while
  // the class's queue sits at or above its high watermark; `WhenReady`
  // invokes `fn` once (asynchronously) when the queue has drained to the low
  // watermark — immediately if it already has. Producers (journal replayer,
  // recovery pump) ask before issuing each batch instead of letting device
  // queues grow without bound.
  virtual bool ShouldThrottle(qos::ServiceClass) const { return false; }
  virtual void WhenReady(qos::ServiceClass, std::function<void()> fn) { fn(); }
};

class BlockDevice {
 public:
  explicit BlockDevice(sim::Simulator* sim) : sim_(sim) {}
  virtual ~BlockDevice() = default;

  // Submits an async operation. The completion callback runs from the
  // simulator event loop; it must not be invoked synchronously from Submit.
  // Routes through the attached QoS gate when one is installed, otherwise
  // applies any injected gray fault and forwards to the device model.
  void Submit(IoRequest req);

  // Dispatches a request into the device, bypassing the gate (fault handling
  // still applies). Called by the gate itself once a request wins arbitration;
  // everyone else goes through Submit.
  void Admit(IoRequest req);

  // Installs/removes the QoS admission gate (not owned; must outlive the
  // device or be detached first).
  void SetGate(IoGate* gate) { gate_ = gate; }
  IoGate* gate() const { return gate_; }

  // Per-request service-latency observer (health monitoring). Invoked at
  // completion with the effective service class and the admit→done latency,
  // which includes device-model queueing/service AND injected gray-fault
  // inflation — the signal a fail-slow detector must see — but not QoS queue
  // wait (a request throttled by policy is not evidence of a sick device).
  // Not owned; must outlive the device or be cleared first.
  using LatencyObserver =
      std::function<void(qos::ServiceClass cls, IoType type, Nanos service_latency)>;
  void SetLatencyObserver(LatencyObserver observer) { observer_ = std::move(observer); }

  virtual uint64_t capacity() const = 0;

  // TRIM: drops the stored bytes of [offset, offset+length), which read back
  // as zeros afterwards. Zero simulated time and no device traffic — it only
  // bounds the simulator's memory to live data. Callers must ensure no
  // submitted-but-unserved read still needs the range.
  void Discard(uint64_t offset, uint64_t length) { store_.Discard(offset, length); }

  // Bytes of simulated media currently held in memory.
  uint64_t resident_bytes() const { return store_.allocated_pages() * PageStore::kPageSize; }

  const DeviceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DeviceStats{}; }

  // Number of operations submitted but not yet completed. Requests held by a
  // stuck fault have not reached the device model and are counted separately
  // (held_requests) — a stuck disk looks idle from the outside, which is
  // exactly what makes the failure "gray".
  virtual size_t inflight() const = 0;

  // ---- Gray-failure injection ----

  // Replaces the active fault. Clearing `stuck` releases every held request
  // into the device model (in admission order).
  void SetFault(const DeviceFault& fault);
  void ClearFault() { SetFault(DeviceFault{}); }
  const DeviceFault& fault() const { return fault_; }

  size_t held_requests() const { return held_.size(); }
  uint64_t fault_delayed_ops() const { return fault_delayed_ops_; }
  uint64_t fault_stuck_ops() const { return fault_stuck_ops_; }

 protected:
  // Device-model implementation of Submit; called after fault handling.
  virtual void SubmitIo(IoRequest req) = 0;

 private:
  // Applies the slow-fault delay and forwards into the device model. Shared
  // by Admit and the stuck-heal release path in SetFault.
  void Dispatch(IoRequest req);

 protected:
  sim::Simulator* sim_;
  DeviceStats stats_;
  // Backing bytes of the device model. Device models apply payloads at
  // SubmitIo; Submit applies them eagerly instead while a QoS gate is
  // attached: the scheduler reorders requests for timing, but data
  // visibility must keep submission order.
  PageStore store_;

 private:
  IoGate* gate_ = nullptr;
  LatencyObserver observer_;
  DeviceFault fault_;
  std::vector<IoRequest> held_;  // admitted while stuck, awaiting heal
  uint64_t fault_delayed_ops_ = 0;
  uint64_t fault_stuck_ops_ = 0;
};

}  // namespace ursa::storage

#endif  // URSA_STORAGE_BLOCK_DEVICE_H_
