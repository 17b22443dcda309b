// Unit tests for device models and the chunk store.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/storage/chunk_store.h"
#include "src/storage/hdd_model.h"
#include "src/storage/mem_device.h"
#include "src/storage/ssd_model.h"
#include "test_util.h"

namespace ursa::storage {
namespace {

TEST(PageStoreTest, ZeroFillAndRoundTrip) {
  PageStore store;
  std::vector<uint8_t> out(100, 0xFF);
  store.Read(5000, out.data(), out.size());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
  auto data = test::Pattern(10000, 1);
  store.Write(12345, data.data(), data.size());
  std::vector<uint8_t> back(10000);
  store.Read(12345, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST(PageStoreTest, PartialOverwrite) {
  PageStore store;
  auto a = test::Pattern(8192, 2);
  auto b = test::Pattern(100, 3);
  store.Write(0, a.data(), a.size());
  store.Write(4000, b.data(), b.size());
  std::vector<uint8_t> back(8192);
  store.Read(0, back.data(), back.size());
  for (size_t i = 0; i < 4000; ++i) {
    EXPECT_EQ(back[i], a[i]);
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(back[4000 + i], b[i]);
  }
  for (size_t i = 4100; i < 8192; ++i) {
    EXPECT_EQ(back[i], a[i]);
  }
}

TEST(PageStoreTest, DiscardDropsPagesAndReadsZeros) {
  constexpr uint64_t kPage = PageStore::kPageSize;
  PageStore store;
  auto data = test::Pattern(3 * kPage, 9);
  store.Write(0, data.data(), data.size());
  ASSERT_EQ(store.allocated_pages(), 3u);

  // A whole page and the tail of the first page: the whole page goes, the
  // partly covered one stays (it still holds data) with the range zeroed.
  store.Discard(kPage / 2, kPage + kPage / 2);
  EXPECT_EQ(store.allocated_pages(), 2u);
  std::vector<uint8_t> out(3 * kPage);
  store.Read(0, out.data(), out.size());
  std::vector<uint8_t> expect = data;
  std::fill(expect.begin() + kPage / 2, expect.begin() + 2 * kPage, 0);
  EXPECT_EQ(out, expect);

  // Zeroing the rest of the first page empties it: dropped as well.
  store.Discard(0, kPage / 2);
  EXPECT_EQ(store.allocated_pages(), 1u);
  store.Read(0, out.data(), out.size());
  std::fill(expect.begin(), expect.begin() + kPage / 2, 0);
  EXPECT_EQ(out, expect);

  // Untouched ranges discard as a no-op.
  store.Discard(10 * kPage, 4 * kPage);
  EXPECT_EQ(store.allocated_pages(), 1u);
}

TEST(MemDeviceTest, AsyncCompletionCarriesData) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB, usec(10));
  auto data = test::Pattern(4096, 4);
  bool wrote = false;
  dev.Submit(IoRequest{IoType::kWrite, 0, 4096, data.data(), nullptr, false,
                       [&](const Status& s) { wrote = s.ok(); }});
  sim.RunToCompletion();
  EXPECT_TRUE(wrote);
  EXPECT_EQ(sim.Now(), usec(10));

  std::vector<uint8_t> out(4096);
  bool read = false;
  dev.Submit(IoRequest{IoType::kRead, 0, 4096, nullptr, out.data(), false,
                       [&](const Status& s) { read = s.ok(); }});
  sim.RunToCompletion();
  EXPECT_TRUE(read);
  EXPECT_EQ(out, data);
}

TEST(MemDeviceTest, FailureInjection) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  dev.FailNext(1);
  Status first;
  Status second;
  dev.Submit(IoRequest{IoType::kRead, 0, 512, nullptr, nullptr, false,
                       [&](const Status& s) { first = s; }});
  dev.Submit(IoRequest{IoType::kRead, 0, 512, nullptr, nullptr, false,
                       [&](const Status& s) { second = s; }});
  sim.RunToCompletion();
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(second.ok());
}

TEST(MemDeviceTest, StatsTracking) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  dev.Submit(IoRequest{IoType::kRead, 0, 4096, nullptr, nullptr, false, [](const Status&) {}});
  dev.Submit(IoRequest{IoType::kWrite, 0, 8192, nullptr, nullptr, false, [](const Status&) {}});
  sim.RunToCompletion();
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().bytes_read, 4096u);
  EXPECT_EQ(dev.stats().bytes_written, 8192u);
}

TEST(SsdModelTest, RandomReadIopsNearSpec) {
  sim::Simulator sim;
  SsdParams params;  // Intel 750-class defaults
  SsdModel ssd(&sim, params);
  Rng rng(1);
  uint64_t completed = 0;
  // Closed loop at queue depth 64 for 1 simulated second.
  Nanos deadline = sec(1);
  std::function<void()> issue = [&]() {
    if (sim.Now() >= deadline) {
      return;
    }
    uint64_t offset = rng.Uniform(params.capacity / 4096) * 4096;
    ssd.Submit(IoRequest{IoType::kRead, offset, 4096, nullptr, nullptr, false, [&](const Status&) {
                           ++completed;
                           issue();
                         }});
  };
  for (int i = 0; i < 64; ++i) {
    issue();
  }
  sim.RunUntil(deadline);
  double iops = static_cast<double>(completed);
  // Datasheet-shaped target: ~430 K random 4K read IOPS (+-25%).
  EXPECT_GT(iops, 320000);
  EXPECT_LT(iops, 540000);
}

TEST(SsdModelTest, Qd1LatencyIncludesController) {
  sim::Simulator sim;
  SsdParams params;
  SsdModel ssd(&sim, params);
  Nanos t = 0;
  ssd.Submit(IoRequest{IoType::kRead, 0, 4096, nullptr, nullptr, false,
                       [&](const Status&) { t = sim.Now(); }});
  sim.RunToCompletion();
  // ~ overhead + transfer + controller latency: expect 60..150 us.
  EXPECT_GT(t, usec(60));
  EXPECT_LT(t, usec(150));
}

TEST(SsdModelTest, SequentialThroughputNearSpec) {
  sim::Simulator sim;
  SsdParams params;
  SsdModel ssd(&sim, params);
  uint64_t bytes = 0;
  uint64_t offset = 0;
  Nanos deadline = sec(1);
  std::function<void()> issue = [&]() {
    if (sim.Now() >= deadline) {
      return;
    }
    uint64_t len = 1 * kMiB;
    ssd.Submit(IoRequest{IoType::kRead, offset % (params.capacity - len), len, nullptr, nullptr,
                         false, [&, len](const Status&) {
                           bytes += len;
                           issue();
                         }});
    offset += len;
  };
  for (int i = 0; i < 16; ++i) {
    issue();
  }
  sim.RunUntil(deadline);
  double gbps = static_cast<double>(bytes) / 1e9;
  // 2.2 GB/s class sequential read.
  EXPECT_GT(gbps, 1.5);
  EXPECT_LT(gbps, 2.6);
}

TEST(HddModelTest, RandomVsSequentialGap) {
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(&sim, params);
  Rng rng(2);

  // 100 random 4K writes, one at a time.
  Nanos start = sim.Now();
  int done = 0;
  std::function<void()> issue_random = [&]() {
    if (done >= 100) {
      return;
    }
    uint64_t offset = rng.Uniform(params.capacity / 4096) * 4096;
    hdd.Submit(IoRequest{IoType::kWrite, offset, 4096, nullptr, nullptr, false, [&](const Status&) {
                           ++done;
                           issue_random();
                         }});
  };
  issue_random();
  sim.RunToCompletion();
  Nanos random_time = sim.Now() - start;
  double random_iops = 100.0 / ToSec(random_time);
  // 7200 RPM random ~ 70-150 IOPS.
  EXPECT_GT(random_iops, 50);
  EXPECT_LT(random_iops, 220);

  // Sequential: 100 x 1 MB appends approach media rate.
  start = sim.Now();
  done = 0;
  uint64_t seq_off = 0;
  std::function<void()> issue_seq = [&]() {
    if (done >= 100) {
      return;
    }
    hdd.Submit(IoRequest{IoType::kWrite, seq_off, 1 * kMiB, nullptr, nullptr, false,
                         [&](const Status&) {
                           ++done;
                           issue_seq();
                         }});
    seq_off += 1 * kMiB;
  };
  issue_seq();
  sim.RunToCompletion();
  double seq_mbps = 100.0 * 1.048576 / ToSec(sim.Now() - start);
  EXPECT_GT(seq_mbps, 100);
  EXPECT_LT(seq_mbps, 170);
}

TEST(HddModelTest, ElevatorBeatsFifoForBatch) {
  // Submitting a sorted batch at once lets C-LOOK service it with short
  // seeks; the same offsets one-at-a-time in random order pay full seeks.
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(&sim, params);
  Rng rng(3);
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 64; ++i) {
    offsets.push_back(rng.Uniform(params.capacity / 4096) * 4096);
  }

  Nanos start = sim.Now();
  int done = 0;
  for (uint64_t off : offsets) {
    hdd.Submit(IoRequest{IoType::kWrite, off, 4096, nullptr, nullptr, false,
                         [&](const Status&) { ++done; }});
  }
  sim.RunToCompletion();
  Nanos batch_time = sim.Now() - start;
  EXPECT_EQ(done, 64);

  HddModel hdd2(&sim, params);
  start = sim.Now();
  size_t idx = 0;
  std::function<void()> one_by_one = [&]() {
    if (idx >= offsets.size()) {
      return;
    }
    hdd2.Submit(IoRequest{IoType::kWrite, offsets[idx++], 4096, nullptr, nullptr, false,
                          [&](const Status&) { one_by_one(); }});
  };
  one_by_one();
  sim.RunToCompletion();
  Nanos serial_time = sim.Now() - start;
  EXPECT_LT(batch_time, serial_time);
}

TEST(HddModelTest, IdleFlag) {
  sim::Simulator sim;
  HddModel hdd(&sim, HddParams{});
  EXPECT_TRUE(hdd.idle());
  hdd.Submit(IoRequest{IoType::kWrite, 0, 4096, nullptr, nullptr, false, [](const Status&) {}});
  EXPECT_FALSE(hdd.idle());
  sim.RunToCompletion();
  EXPECT_TRUE(hdd.idle());
}

TEST(ChunkStoreTest, AllocateFreeCycle) {
  sim::Simulator sim;
  MemDevice dev(&sim, 16 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  EXPECT_EQ(store.total_slots(), 16u);
  EXPECT_TRUE(store.Allocate(7).ok());
  EXPECT_TRUE(store.Contains(7));
  EXPECT_EQ(store.Allocate(7).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(store.Free(7).ok());
  EXPECT_FALSE(store.Contains(7));
  EXPECT_EQ(store.Free(7).code(), StatusCode::kNotFound);
}

TEST(ChunkStoreTest, ExhaustsSlots) {
  sim::Simulator sim;
  MemDevice dev(&sim, 4 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  for (ChunkId id = 0; id < 4; ++id) {
    EXPECT_TRUE(store.Allocate(id).ok());
  }
  EXPECT_EQ(store.Allocate(99).code(), StatusCode::kResourceExhausted);
}

TEST(ChunkStoreTest, IoRoundTripAndIsolation) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(1).ok());
  ASSERT_TRUE(store.Allocate(2).ok());

  auto a = test::Pattern(4096, 10);
  auto b = test::Pattern(4096, 20);
  store.Write(1, 0, 4096, a.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  store.Write(2, 0, 4096, b.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();

  std::vector<uint8_t> out(4096);
  store.Read(1, 0, 4096, out.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(out, a);
  store.Read(2, 0, 4096, out.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(out, b);
}

TEST(ChunkStoreTest, RejectsOutOfRange) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(1).ok());
  Status status;
  store.Read(1, 1 * kMiB - 512, 1024, nullptr, [&](const Status& s) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  store.Read(99, 0, 512, nullptr, [&](const Status& s) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(ChunkStoreTest, RegionOffsetRespected) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  // Store confined to the second half of the device (first half = journals).
  ChunkStore store(&dev, 1 * kMiB, 4 * kMiB, 4 * kMiB);
  EXPECT_EQ(store.total_slots(), 4u);
  ASSERT_TRUE(store.Allocate(1).ok());
  EXPECT_GE(store.SlotOffset(1), 4 * kMiB);
}

// A freed slot holds no memory, and whoever allocates it next starts from
// zeros rather than the previous chunk's bytes.
TEST(ChunkStoreTest, FreedSlotIsDiscardedAndReallocatesZeroed) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(7).ok());
  uint64_t slot_offset = store.SlotOffset(7);
  auto data = test::Pattern(64 * kKiB, 5);
  store.Write(7, 128 * kKiB, data.size(), data.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(dev.resident_bytes(), data.size());

  ASSERT_TRUE(store.Free(7).ok());
  EXPECT_EQ(dev.resident_bytes(), 0u);
  ASSERT_TRUE(store.Allocate(8).ok());
  ASSERT_EQ(store.SlotOffset(8), slot_offset);  // LIFO: the same slot
  std::vector<uint8_t> out(data.size(), 0xEE);
  store.Read(8, 128 * kKiB, out.size(), out.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(out, std::vector<uint8_t>(data.size(), 0));
}

// A read submitted before Free but not yet served by the device still gets
// the chunk's bytes: the discard waits for it.
TEST(ChunkStoreTest, FreeDefersDiscardPastQueuedRead) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(7).ok());
  auto data = test::Pattern(8 * kKiB, 6);
  store.Write(7, 0, data.size(), data.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();

  dev.SetFault(DeviceFault{0, /*stuck=*/true});
  std::vector<uint8_t> out(data.size(), 0xEE);
  Status status = Internal("not completed");
  store.Read(7, 0, out.size(), out.data(), [&](const Status& s) { status = s; });
  sim.RunToCompletion();
  ASSERT_EQ(dev.held_requests(), 1u);
  ASSERT_TRUE(store.Free(7).ok());
  EXPECT_EQ(dev.resident_bytes(), data.size());  // held for the read

  dev.ClearFault();
  sim.RunToCompletion();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, data);
  EXPECT_EQ(dev.resident_bytes(), 0u);  // discarded once the read completed
}

// Allocate passes over a freed slot whose reads are still queued: the stale
// read gets the freed chunk's bytes, and the new chunk takes another slot and
// reads zeros.
TEST(ChunkStoreTest, AllocatePassesOverSlotUnderQueuedRead) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(7).ok());
  uint64_t freed_offset = store.SlotOffset(7);
  auto data = test::Pattern(4 * kKiB, 7);
  store.Write(7, 0, data.size(), data.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();

  dev.SetFault(DeviceFault{0, /*stuck=*/true});
  std::vector<uint8_t> stale(data.size(), 0xEE);
  Status stale_status = Internal("not completed");
  store.Read(7, 0, stale.size(), stale.data(), [&](const Status& s) { stale_status = s; });
  ASSERT_TRUE(store.Free(7).ok());
  ASSERT_TRUE(store.Allocate(8).ok());
  EXPECT_NE(store.SlotOffset(8), freed_offset);
  EXPECT_EQ(dev.resident_bytes(), data.size());  // still held for the read
  dev.ClearFault();
  sim.RunToCompletion();
  ASSERT_TRUE(stale_status.ok()) << stale_status.ToString();
  EXPECT_EQ(stale, data);
  EXPECT_EQ(dev.resident_bytes(), 0u);

  std::vector<uint8_t> out(data.size(), 0xEE);
  store.Read(8, 0, out.size(), out.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(out, std::vector<uint8_t>(data.size(), 0));
}

// When the only free slot is still being read, Allocate reuses it at once:
// the new chunk reads zeros, and the queued read of the freed chunk fails
// rather than return bytes that are no longer that chunk's.
TEST(ChunkStoreTest, ReusingSlotUnderQueuedReadFailsTheRead) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);  // a single slot
  ASSERT_TRUE(store.Allocate(7).ok());
  auto data = test::Pattern(4 * kKiB, 8);
  store.Write(7, 0, data.size(), data.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();

  dev.SetFault(DeviceFault{0, /*stuck=*/true});
  std::vector<uint8_t> stale(data.size());
  Status stale_status = Internal("not completed");
  store.Read(7, 0, stale.size(), stale.data(), [&](const Status& s) { stale_status = s; });
  ASSERT_TRUE(store.Free(7).ok());
  ASSERT_TRUE(store.Allocate(8).ok());
  EXPECT_EQ(dev.resident_bytes(), 0u);
  std::vector<uint8_t> out(data.size(), 0xEE);
  Status status = Internal("not completed");
  store.Read(8, 0, out.size(), out.data(), [&](const Status& s) { status = s; });
  dev.ClearFault();
  sim.RunToCompletion();
  EXPECT_EQ(stale_status.code(), StatusCode::kNotFound) << stale_status.ToString();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, std::vector<uint8_t>(data.size(), 0));
}

}  // namespace
}  // namespace ursa::storage
