// Shared helpers for Ursa tests: small, fast cluster configurations and
// byte-pattern utilities for end-to-end data verification.
#ifndef URSA_TESTS_TEST_UTIL_H_
#define URSA_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/params.h"

namespace ursa::test {

// A miniature paper machine: tiny devices and chunks so tests run in
// milliseconds while exercising the same code paths.
inline cluster::MachineConfig SmallMachineConfig() {
  cluster::MachineConfig m;
  m.cores = 4;
  m.ssds = 2;
  m.hdds = 2;
  m.ssd.capacity = 64 * kMiB;
  m.hdd.capacity = 256 * kMiB;
  return m;
}

inline cluster::ClusterConfig SmallClusterConfig(
    cluster::StorageMode mode = cluster::StorageMode::kHybrid) {
  cluster::ClusterConfig c;
  c.machines = 3;
  c.machine = SmallMachineConfig();
  c.mode = mode;
  c.chunk_size = 1 * kMiB;
  c.hdd_journal_bytes = 4 * kMiB;
  return c;
}

inline core::SystemProfile SmallProfile(cluster::StorageMode mode =
                                            cluster::StorageMode::kHybrid) {
  core::SystemProfile p;
  p.name = "small";
  p.cluster = SmallClusterConfig(mode);
  return p;
}

// Deterministic byte pattern for verifying data round trips.
inline std::vector<uint8_t> Pattern(size_t length, uint64_t seed) {
  std::vector<uint8_t> out(length);
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (size_t i = 0; i < length; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<uint8_t>(x);
  }
  return out;
}

// QoS-gate stand-in that holds back the requests `hold` selects (until
// Release) and admits everything else at once. Writes pass through Submit's
// eager payload path either way, so only reads observe the hold.
class HoldingGate : public storage::IoGate {
 public:
  HoldingGate(storage::BlockDevice* device, std::function<bool(const storage::IoRequest&)> hold)
      : device_(device), hold_(std::move(hold)) {
    device_->SetGate(this);
  }
  ~HoldingGate() override { device_->SetGate(nullptr); }
  HoldingGate(const HoldingGate&) = delete;
  HoldingGate& operator=(const HoldingGate&) = delete;

  void OnSubmit(storage::IoRequest req) override {
    if (holding_ && hold_(req)) {
      held_.push_back(std::move(req));
      return;
    }
    device_->Admit(std::move(req));
  }

  void Release() {
    holding_ = false;
    std::vector<storage::IoRequest> held;
    held.swap(held_);
    for (storage::IoRequest& req : held) {
      device_->Admit(std::move(req));
    }
  }

  size_t held() const { return held_.size(); }

 private:
  storage::BlockDevice* device_;
  std::function<bool(const storage::IoRequest&)> hold_;
  bool holding_ = true;
  std::vector<storage::IoRequest> held_;
};

}  // namespace ursa::test

#endif  // URSA_TESTS_TEST_UTIL_H_
