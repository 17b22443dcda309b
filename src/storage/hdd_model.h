// Mechanical model of a 7200 RPM SATA HDD with C-LOOK elevator scheduling.
//
// Service time for a dispatched request:
//   seek (0 if the head is already there; otherwise min_seek + distance-
//   proportional component up to max_seek) + half-rotation latency whenever a
//   seek occurred + transfer at the sequential media rate.
// The elevator sweeps upward through pending offsets and wraps (C-LOOK),
// which is what makes journal *replay* (sorted, merged writes) far cheaper
// than the random backup writes it absorbs — the effect Ursa's design relies
// on (§3.2). A single request is in service at a time: disk arms do not
// overlap seeks, hence "HDDs inherently have no parallelism" (§3.4).
#ifndef URSA_STORAGE_HDD_MODEL_H_
#define URSA_STORAGE_HDD_MODEL_H_

#include <deque>
#include <map>

#include "src/common/units.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace ursa::storage {

struct HddParams {
  uint64_t capacity = 1 * kTiB;
  Nanos min_seek = usec(500);       // settle time for a short seek
  Nanos max_seek = msec(15);        // full-stroke seek
  Nanos half_rotation = usec(4170);  // 7200 RPM -> 8.33 ms/rev, avg wait half
  double media_bw = 150.0e6;        // bytes/s sequential transfer
  // Offsets within this distance of the head count as sequential (track
  // buffer / skip-ahead): no seek, no rotation charge.
  uint64_t sequential_window = 2 * kMiB;
  // Background (replay) I/O runs only after the disk has seen no foreground
  // traffic for this long — the hysteresis behind "replayed only when idle".
  Nanos background_idle_grace = msec(5);
  // A small sequential write dispatched with nothing else queued cannot be
  // coalesced; it pays a partial-rotation commit penalty (sync append
  // without NCQ batching). Large writes stream through the track cache.
  Nanos lone_append_penalty = msec(1);
  uint64_t lone_append_max_bytes = 64 * kKiB;
};

class HddModel : public BlockDevice {
 public:
  HddModel(sim::Simulator* sim, const HddParams& params);

  uint64_t capacity() const override { return params_.capacity; }
  size_t inflight() const override {
    return pending_.size() + background_.size() + (busy_ ? 1 : 0);
  }

  // True when no request is in service and none is queued. The journal
  // replayer polls this to replay HDD journals "only when idle" (§3.2).
  bool idle() const { return !busy_ && pending_.empty() && background_.empty(); }

  const HddParams& params() const { return params_; }
  Nanos busy_time() const { return busy_time_; }

 protected:
  void SubmitIo(IoRequest req) override;

 private:
  struct Pending {
    IoRequest req;
    uint64_t seq;  // FIFO tie-break for equal offsets
  };

  void Dispatch();
  Nanos ServiceTime(const IoRequest& req);

  HddParams params_;
  // Elevator queues ordered by offset; multimap tolerates duplicate offsets.
  // Foreground requests always dispatch before background (replay) ones.
  std::multimap<uint64_t, Pending> pending_;
  std::multimap<uint64_t, Pending> background_;
  bool busy_ = false;
  bool defer_scheduled_ = false;
  Nanos last_foreground_ = -sec(1);  // allow background work immediately at t=0
  uint64_t head_pos_ = 0;
  uint64_t next_seq_ = 0;
  Nanos busy_time_ = 0;
};

}  // namespace ursa::storage

#endif  // URSA_STORAGE_HDD_MODEL_H_
