// TestBed-level sanity tests: the profiles drive measurable workloads and
// the headline performance relationships of the paper hold in miniature.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "src/baselines/ceph_model.h"
#include "src/baselines/sheepdog_model.h"
#include "src/common/rng.h"
#include "src/core/system.h"
#include "src/trace/msr_generator.h"

namespace ursa::core {
namespace {

// Full-size paper machines but a small disk keeps tests fast.
constexpr uint64_t kDiskSize = 2ull * kGiB;

TEST(TestBedTest, HybridRunsRandomReadWorkload) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 1.0;
  RunMetrics m = bed.RunWorkload(disk, spec, msec(200), sec(2), "read");
  EXPECT_GT(m.read_iops(), 10000);
  EXPECT_LT(m.read_iops(), 200000);
  EXPECT_GT(m.read_latency_us.Mean(), 100);   // network + device floor
  EXPECT_LT(m.read_latency_us.Mean(), 2000);
  EXPECT_EQ(m.writes, 0u);
}

TEST(TestBedTest, HybridWritesAreJournaled) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 0.0;
  RunMetrics m = bed.RunWorkload(disk, spec, msec(200), sec(2), "write");
  EXPECT_GT(m.write_iops(), 5000);
  uint64_t journaled = 0;
  for (const auto* jm : bed.cluster().journal_managers()) {
    journaled += jm->stats().journaled_writes;
  }
  EXPECT_GT(journaled, m.writes);  // every write journals on 2 backups
}

TEST(TestBedTest, HybridMatchesSsdOnlyForSmallWrites) {
  // The paper's headline: hybrid ~= SSD-only for random small I/O (Fig. 6).
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 0.0;

  TestBed hybrid(UrsaHybridProfile(3));
  RunMetrics mh = hybrid.RunWorkload(hybrid.NewDisk(kDiskSize), spec, msec(200), sec(2), "h");
  TestBed ssd(UrsaSsdProfile(3));
  RunMetrics ms = ssd.RunWorkload(ssd.NewDisk(kDiskSize), spec, msec(200), sec(2), "s");

  EXPECT_GT(mh.write_iops(), 0.75 * ms.write_iops());
  EXPECT_LT(mh.write_iops(), 1.25 * ms.write_iops());
}

TEST(TestBedTest, HddOnlyIsFarSlowerForRandomWrites) {
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 0.0;
  TestBed hybrid(UrsaHybridProfile(3));
  RunMetrics mh = hybrid.RunWorkload(hybrid.NewDisk(kDiskSize), spec, msec(200), sec(2), "h");
  TestBed hdd(UrsaHddProfile(3));
  RunMetrics md = hdd.RunWorkload(hdd.NewDisk(kDiskSize), spec, msec(200), sec(2), "d");
  EXPECT_GT(mh.write_iops(), 5 * md.write_iops());
}

TEST(TestBedTest, BaselinesAreSlowerThanUrsa) {
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 1.0;

  TestBed ursa(UrsaSsdProfile(3));
  RunMetrics mu = ursa.RunWorkload(ursa.NewDisk(kDiskSize), spec, msec(200), sec(2), "u");
  TestBed ceph(baselines::CephProfile(3));
  RunMetrics mc = ceph.RunWorkload(ceph.NewDisk(kDiskSize), spec, msec(200), sec(2), "c");
  TestBed sheep(baselines::SheepdogProfile(3));
  RunMetrics msd = sheep.RunWorkload(sheep.NewDisk(kDiskSize), spec, msec(200), sec(2), "s");

  EXPECT_GT(mu.read_iops(), mc.read_iops());
  EXPECT_GT(mu.read_iops(), msd.read_iops());
}

TEST(TestBedTest, CpuEfficiencyOrdering) {
  // Fig. 7: Ursa efficiency >> Sheepdog >> Ceph (server side).
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 1.0;

  auto run = [&](const SystemProfile& p) {
    TestBed bed(p);
    return bed.RunWorkload(bed.NewDisk(kDiskSize), spec, msec(200), sec(2), p.name);
  };
  RunMetrics mu = run(UrsaSsdProfile(3));
  RunMetrics mc = run(baselines::CephProfile(3));
  RunMetrics msd = run(baselines::SheepdogProfile(3));

  EXPECT_GT(mu.ServerIopsPerCore(), 3 * msd.ServerIopsPerCore());
  EXPECT_GT(msd.ServerIopsPerCore(), 2 * mc.ServerIopsPerCore());
  EXPECT_GT(mu.ClientIopsPerCore(), 2 * msd.ClientIopsPerCore());
}

TEST(TestBedTest, SequentialWritesSlowerThanReadsAtDepth) {
  // Fig. 8 vs Fig. 9: per-chunk write ordering throttles sequential writes.
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.pattern = WorkloadSpec::Pattern::kSequential;

  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  spec.read_fraction = 1.0;
  RunMetrics mr = bed.RunWorkload(disk, spec, msec(200), sec(2), "r");
  spec.read_fraction = 0.0;
  RunMetrics mw = bed.RunWorkload(disk, spec, msec(200), sec(2), "w");
  EXPECT_GT(mr.read_iops(), 2 * mw.write_iops());
}

TEST(TestBedTest, TraceReplayCompletes) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  const trace::TraceProfile* p = trace::FindTraceProfile("mds_1");
  ASSERT_NE(p, nullptr);
  auto records = trace::SynthesizeTrace(*p, 3000, 42);
  RunMetrics m = bed.RunTrace(disk, records, 16, "mds_1");
  EXPECT_EQ(m.reads + m.writes, 3000u);
  EXPECT_GT(m.iops(), 1000);
}

TEST(TestBedTest, MultipleConcurrentClients) {
  TestBed bed(UrsaHybridProfile(3));
  std::vector<std::pair<client::VirtualDisk*, WorkloadSpec>> jobs;
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 8;
  spec.read_fraction = 1.0;
  for (int i = 0; i < 3; ++i) {
    spec.seed = 100 + i;
    jobs.emplace_back(bed.NewDisk(512 * kMiB), spec);
  }
  RunMetrics m = bed.RunWorkloads(jobs, msec(200), sec(1), "multi");
  EXPECT_GT(m.read_iops(), 10000);
}

// Memory gate: a simulated run holds device memory for live bytes only.
// After journaled overwrites drain through replay, the devices hold the three
// replicas of the distinct bytes written, plus at most the two boundary pages
// of each journal region (the stated slack). Rings that kept replayed records
// would hold every append on both backups on top of that.
TEST(TestBedTest, DeviceMemoryTracksLiveBytesAfterReplay) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(64 * kMiB);
  constexpr uint64_t kBlock = 4 * kKiB;
  constexpr uint64_t kBlocks = 512;  // a 2 MiB working set
  constexpr int kWrites = 4 * kBlocks;
  std::vector<uint8_t> payload(kBlock, 0x5A);
  Rng rng(7);
  std::set<uint64_t> distinct;
  int issued = 0;
  int completed = 0;
  std::function<void()> issue = [&]() {
    if (issued == kWrites) {
      return;
    }
    ++issued;
    uint64_t offset = rng.Uniform(kBlocks) * kBlock;
    distinct.insert(offset);
    disk->Write(offset, kBlock, payload.data(), [&](const Status& s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++completed;
      issue();
    });
  };
  for (int i = 0; i < 8; ++i) {
    issue();
  }
  auto drained = [&]() {
    for (const auto* jm : bed.cluster().journal_managers()) {
      if (!jm->ReplayDrained()) {
        return false;
      }
    }
    return completed == kWrites;
  };
  for (int i = 0; i < 1000 && !drained(); ++i) {
    bed.sim().RunUntil(bed.sim().Now() + msec(10));
  }
  ASSERT_TRUE(drained());

  uint64_t journaled = 0;
  uint64_t journals = 0;
  for (const auto* jm : bed.cluster().journal_managers()) {
    journaled += jm->stats().journaled_writes;
    journals += jm->num_journals();
  }
  EXPECT_GE(journaled, 2u * kWrites);  // every write journals on both backups
  uint64_t resident = 0;
  for (size_t m = 0; m < bed.cluster().num_machines(); ++m) {
    cluster::Machine& machine = bed.cluster().machine(m);
    for (int i = 0; i < machine.num_ssds(); ++i) {
      resident += machine.ssd(i).resident_bytes();
    }
    for (int i = 0; i < machine.num_hdds(); ++i) {
      resident += machine.hdd(i).resident_bytes();
    }
  }
  uint64_t slack = journals * 2 * storage::PageStore::kPageSize;
  EXPECT_LE(resident, 3 * distinct.size() * kBlock + slack);
}

}  // namespace
}  // namespace ursa::core
