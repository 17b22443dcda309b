#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/msr_generator.h"

namespace ursabench {

using ursa::kGiB;
using ursa::kKiB;
using ursa::kMiB;
using ursa::msec;
using ursa::sec;
using ursa::usec;
namespace cluster = ursa::cluster;

namespace {

constexpr uint64_t kSector = ReadChecker::kSector;
// Resolution of every convergence time the benchmark reports.
constexpr Nanos kPollEvery = usec(100);

size_t Scaled(double scale, size_t n) {
  return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * scale + 0.5));
}

// Returns a function that runs `next` on its n-th call.
std::function<void()> Barrier(size_t n, std::function<void()> next) {
  auto left = std::make_shared<size_t>(n);
  return [left, next = std::move(next)]() {
    if (--*left == 0) {
      next();
    }
  };
}

// Re-checks `cond` every `interval` of simulated time; runs `then` (inside
// that event) the first time it holds. Must outlive the simulator run.
class Poller {
 public:
  Poller(ursa::sim::Simulator* sim, Nanos interval, std::function<bool()> cond,
         std::function<void()> then)
      : sim_(sim), interval_(interval), cond_(std::move(cond)), then_(std::move(then)) {}

  void Start() {
    sim_->After(interval_, [this]() { Tick(); });
  }

 private:
  void Tick() {
    if (cond_()) {
      then_();
      return;
    }
    sim_->After(interval_, [this]() { Tick(); });
  }

  ursa::sim::Simulator* sim_;
  Nanos interval_;
  std::function<bool()> cond_;
  std::function<void()> then_;
};

bool ReplayDrained(ursa::core::TestBed& bed) {
  for (ursa::journal::JournalManager* jm : bed.cluster().journal_managers()) {
    if (!jm->ReplayDrained()) {
      return false;
    }
  }
  return true;
}

double StoredPerUserByte(ursa::core::TestBed& bed) {
  cluster::Master& master = bed.cluster().master();
  return static_cast<double>(master.PhysicalBytes()) /
         static_cast<double>(master.LogicalBytes());
}

// Uniform 4 KiB-aligned random ops over `span` bytes.
std::vector<Op> RandomOps(ursa::Rng* rng, size_t n, uint64_t span, uint32_t block,
                          double read_fraction) {
  std::vector<Op> ops(n);
  uint64_t slots = span / block;
  for (Op& op : ops) {
    op.is_write = !rng->Bernoulli(read_fraction);
    op.offset = rng->Uniform(slots) * block;
    op.length = block;
  }
  return ops;
}

// Runs every tenant through its op list in phases that end at fleet-wide
// barriers: ops [0, cuts[0]) warm up unmeasured, and each later phase, up to
// the end of the list, is measured. Then waits until every journal has
// replayed its backlog, and returns the simulated seconds that took.
double RunPhasesThenDrain(Bench& bench, const std::vector<Tenant*>& tenants,
                          const std::vector<std::vector<Op>>& ops,
                          const std::vector<size_t>& cuts) {
  double drain_s = 0;
  bool done = false;
  Poller drain(&bench.sim(), kPollEvery, [&bench]() { return ReplayDrained(bench.bed()); },
               [&]() {
                 drain_s = ursa::ToSec(bench.sim().Now() - bench.measure_end_sim());
                 done = true;
               });
  std::function<void(size_t)> phase = [&](size_t i) {
    if (i == 1) {
      bench.StartMeasured();
    }
    if (i > cuts.size()) {
      bench.EndMeasured();
      drain.Start();
      return;
    }
    auto next = Barrier(tenants.size(), [&phase, i]() { phase(i + 1); });
    for (size_t t = 0; t < tenants.size(); ++t) {
      size_t begin = i == 0 ? 0 : cuts[i - 1];
      size_t end = i < cuts.size() ? cuts[i] : ops[t].size();
      tenants[t]->Run(&ops[t], begin, end, i > 0, next);
    }
  };
  bench.sim().After(0, [&]() { phase(0); });
  bench.Drive(&done, sec(600));
  return drain_s;
}

// ---------------------------------------------------------------------------
// vm_fleet: 12 VMs, each replaying its own synthesized MSR volume at qd8
// with real payloads; every read is checked.

constexpr int kFleetMachines = 6;
constexpr int kFleetQd = 8;
constexpr uint64_t kFleetVolume = 128 * kMiB;
constexpr size_t kFleetWarmOps = 250;
constexpr size_t kFleetMeasuredOps = 2500;
// Write-dominated and read-heavy volumes alternate.
const char* const kFleetProfiles[] = {"prxy_0", "mds_1",  "proj_0", "hm_1",
                                      "src2_2", "proj_1", "web_0",  "rsrch_1",
                                      "usr_0",  "usr_1",  "wdev_0", "web_2"};

Outcome RunVmFleet(Bench& bench, const RunConfig& config) {
  bench.Build(ursa::core::UrsaHybridProfile(kFleetMachines));
  ursa::core::TestBed& bed = bench.bed();

  const size_t warm = Scaled(config.scale, kFleetWarmOps);
  const size_t measured = Scaled(config.scale, kFleetMeasuredOps);
  std::vector<Tenant*> vms;
  std::vector<std::vector<Op>> ops;
  for (size_t v = 0; v < std::size(kFleetProfiles); ++v) {
    ursa::client::VirtualDisk* disk = bench.OpenDisk(nullptr, kFleetVolume, 3, 2);
    vms.push_back(bench.NewTenant(disk, kFleetQd, true));

    ScopedSpan gen(&bench.spans(), "bench.gen");
    ursa::trace::TraceProfile profile = *ursa::trace::FindTraceProfile(kFleetProfiles[v]);
    profile.volume_bytes = kFleetVolume;
    auto records = ursa::trace::SynthesizeTrace(profile, warm + measured,
                                                config.seed * 1000003ULL + v);
    std::vector<Op>& list = ops.emplace_back();
    list.reserve(records.size());
    for (const ursa::trace::TraceRecord& rec : records) {
      // Offsets wrap within the disk, as TestBed::RunTrace does.
      uint64_t limit = kFleetVolume - rec.length;
      uint64_t offset = rec.offset <= limit ? rec.offset : rec.offset % (limit + 1);
      list.push_back({rec.is_write, offset - offset % kSector, rec.length});
    }
  }

  Outcome out;
  out.converge_s = RunPhasesThenDrain(bench, vms, ops, {warm});
  out.stored_per_user_byte = StoredPerUserByte(bed);
  return out;
}

// ---------------------------------------------------------------------------
// scale_out: Fig. 13(a)-style. One qd32 client per storage machine of a
// 22-machine hybrid fleet, timing-only 4 KiB random reads on large disks,
// then a shorter 4 KiB random-write phase.

constexpr int kScaleMachines = 22;
constexpr int kScaleQd = 32;
constexpr uint64_t kScaleDisk = 2 * kGiB;
constexpr size_t kScaleWarmOps = 200;
constexpr size_t kScaleReadOps = 8000;
constexpr size_t kScaleWriteOps = 1500;

Outcome RunScaleOut(Bench& bench, const RunConfig& config) {
  bench.Build(ursa::core::UrsaHybridProfile(kScaleMachines));
  ursa::core::TestBed& bed = bench.bed();

  const size_t warm = Scaled(config.scale, kScaleWarmOps);
  const size_t reads = Scaled(config.scale, kScaleReadOps);
  const size_t writes = Scaled(config.scale, kScaleWriteOps);
  std::vector<Tenant*> clients;
  std::vector<std::vector<Op>> ops;
  for (int m = 0; m < kScaleMachines; ++m) {
    ursa::client::VirtualDisk* disk =
        bench.OpenDisk(&bed.cluster().machine(static_cast<size_t>(m)), kScaleDisk, 3, 2);
    clients.push_back(bench.NewTenant(disk, kScaleQd, false));
    ScopedSpan gen(&bench.spans(), "bench.gen");
    ursa::Rng rng(config.seed * 7919ULL + static_cast<uint64_t>(m));
    std::vector<Op> list = RandomOps(&rng, warm + reads, kScaleDisk, 4 * kKiB, 1.0);
    std::vector<Op> w = RandomOps(&rng, writes, kScaleDisk, 4 * kKiB, 0.0);
    list.insert(list.end(), w.begin(), w.end());
    ops.push_back(std::move(list));
  }

  // The write phase starts once every client has finished its reads.
  Outcome out;
  out.converge_s = RunPhasesThenDrain(bench, clients, ops, {warm, warm + reads});
  out.stored_per_user_byte = StoredPerUserByte(bed);
  return out;
}

// ---------------------------------------------------------------------------
// bg_storm: hot payload tenant under a demotion wave, a backup-server crash
// with re-replication, scrub and QoS, all at repo defaults otherwise.

constexpr int kStormMachines = 6;
constexpr uint64_t kStormChunk = 4 * kMiB;
// Small enough that every hot chunk stays far above the demotion heat.
constexpr uint64_t kHotDisk = 32 * kMiB;
constexpr uint64_t kColdDisk = 64 * kMiB;
// qd32, not qd8: at qd8 no request ever queues, so every seed gives the
// same median to the nanosecond and the latency metrics measure nothing.
constexpr int kHotQd = 32;
constexpr size_t kHotWarmOps = 2000;
constexpr size_t kHotMeasuredOps = 160000;
// The cold tenant's prefill heat decays below the demotion threshold and
// passes the cold age ~2 s after the prefill, so the wave runs inside the
// measured phase.
constexpr Nanos kColdIdle = msec(1900);   // prefill -> hot warm-up
constexpr Nanos kCrashDelay = msec(150);  // measured start -> crash
// Once the wave has demoted every cold chunk, one 4 KiB write lands in each
// of kColdWrites of them (the same chunks on every seed), kColdWriteEvery
// apart: each takes the speculative write-promotion path, and its back-fill
// loads the devices the hot tenant uses.
constexpr Nanos kColdWriteEvery = msec(25);
constexpr int kColdWrites = 8;

// Short cold age so a whole demotion wave fits in a few simulated seconds;
// everything else is TierConfig's defaults. The cold age stays well above
// the write stall a crash causes (commit and request timeouts), so a hot
// chunk whose writes wait out a dead replica is not mistaken for cold.
ursa::tier::TierConfig StormTierConfig() {
  ursa::tier::TierConfig t;
  t.enabled = true;
  t.ec_k = 4;
  t.ec_m = 2;
  t.heat_half_life = msec(250);
  t.scan_interval = msec(100);
  t.demote_max_heat = 2.0;
  t.cold_age = sec(2);
  return t;
}

// Finds every chunk of `disks` still holding a replica or shard on the
// crashed server and asks the master to repair it, as a failure detector
// would; a chunk is asked again only after its previous repair finished.
class CrashRepair {
 public:
  CrashRepair(cluster::Master* master, std::vector<cluster::DiskId> disks,
              cluster::ServerId failed)
      : master_(master), disks_(std::move(disks)), failed_(failed) {}

  // Returns true when no chunk references the failed server.
  bool Scan(bool request_repairs) {
    bool healed = true;
    for (cluster::DiskId id : disks_) {
      const cluster::DiskMeta* meta = *master_->GetDisk(id);
      for (const cluster::ChunkLayout& layout : meta->chunks) {
        for (const cluster::ReplicaRef& r : layout.spec_replicas) {
          healed = healed && r.server != failed_;
        }
        for (const cluster::ReplicaRef& r : layout.replicas) {
          if (r.server == failed_) {
            healed = false;
            if (request_repairs && !layout.speculating()) {
              Request(layout.chunk, -1);
            }
          }
        }
        for (size_t i = 0; i < layout.ec_shards.size(); ++i) {
          if (layout.ec_shards[i].server == failed_) {
            healed = false;
            if (request_repairs && !layout.speculating()) {
              Request(layout.chunk, static_cast<int>(i));
            }
          }
        }
      }
    }
    return healed;
  }

 private:
  void Request(cluster::ChunkId chunk, int shard) {
    if (!pending_.insert(chunk).second) {
      return;
    }
    auto done = [this, chunk](ursa::Status) { pending_.erase(chunk); };
    if (shard < 0) {
      master_->ReportReplicaFailure(chunk, failed_, done);
    } else {
      master_->RepairEcShard(chunk, shard, done);
    }
  }

  cluster::Master* master_;
  std::vector<cluster::DiskId> disks_;
  cluster::ServerId failed_;
  std::set<cluster::ChunkId> pending_;
};

// The first backup (HDD) server of a cold chunk that holds no replica of
// the hot disk. Hybrid placement sorts replicas SSD-first. A hot chunk's
// backup is not crashed: every write to that chunk then waits out the
// commit timeout, even after the master has replaced the replica, so the
// closed loop collapses onto one chunk and the run measures only that (see
// the workload notes in README.md).
cluster::ServerId PickCrashVictim(cluster::Master& master, cluster::DiskId hot,
                                  cluster::DiskId cold) {
  std::set<cluster::ServerId> hot_servers;
  for (const cluster::ChunkLayout& l : (*master.GetDisk(hot))->chunks) {
    for (const cluster::ReplicaRef& r : l.replicas) {
      hot_servers.insert(r.server);
    }
  }
  for (const cluster::ChunkLayout& l : (*master.GetDisk(cold))->chunks) {
    for (size_t i = 1; i < l.replicas.size(); ++i) {
      if (!l.replicas[i].on_ssd && hot_servers.count(l.replicas[i].server) == 0) {
        return l.replicas[i].server;
      }
    }
  }
  std::fprintf(stderr, "no backup server without hot replicas\n");
  std::exit(3);
}

Outcome RunBgStorm(Bench& bench, const RunConfig& config) {
  ursa::core::SystemProfile profile = ursa::core::UrsaHybridProfile(kStormMachines);
  profile.cluster.chunk_size = kStormChunk;
  profile.cluster.qos.enabled = true;
  profile.cluster.scrub.enabled = true;
  profile.cluster.tier = StormTierConfig();
  bench.Build(profile);
  ursa::core::TestBed& bed = bench.bed();
  ursa::sim::Simulator& sim = bench.sim();
  cluster::Master& master = bed.cluster().master();

  Tenant& hot = *bench.NewTenant(bench.OpenDisk(nullptr, kHotDisk, 3, 2), kHotQd, true);
  Tenant& cold = *bench.NewTenant(bench.OpenDisk(nullptr, kColdDisk, 3, 1), 4, true);
  const cluster::DiskId hot_id = 1;
  const cluster::DiskId cold_id = 2;
  if ((*master.GetDisk(hot_id))->size != kHotDisk ||
      (*master.GetDisk(cold_id))->size != kColdDisk) {
    std::fprintf(stderr, "unexpected disk ids\n");
    std::exit(3);
  }

  const size_t warm = Scaled(config.scale, kHotWarmOps);
  const size_t measured = Scaled(config.scale, kHotMeasuredOps);
  std::vector<Op> hot_ops;
  std::vector<Op> cold_fill;
  std::vector<Op> cold_writes;
  std::vector<Op> cold_readback;
  {
    ScopedSpan gen(&bench.spans(), "bench.gen");
    ursa::Rng rng(config.seed * 6151ULL + 3);
    hot_ops = RandomOps(&rng, warm + measured, kHotDisk, 4 * kKiB, 0.7);
    for (uint64_t off = 0; off < kColdDisk; off += kStormChunk) {
      cold_fill.push_back({true, off, static_cast<uint32_t>(kStormChunk)});
      cold_readback.push_back({false, off, static_cast<uint32_t>(kStormChunk)});
    }
    for (int i = 0; i < kColdWrites; ++i) {
      uint64_t chunk = static_cast<uint64_t>(i) * (kColdDisk / kStormChunk) / kColdWrites;
      cold_writes.push_back({true, chunk * kStormChunk + static_cast<uint64_t>(i) * 256 * kKiB,
                             static_cast<uint32_t>(4 * kKiB)});
    }
  }

  Outcome out;
  bool done = false;
  bool measured_over = false;
  int cold_writes_acked = 0;
  Nanos crash_time = 0;
  std::unique_ptr<CrashRepair> repair;
  Nanos last_scan = 0;

  auto cold_wave_done = [&]() {
    for (const cluster::ChunkLayout& l : (*master.GetDisk(cold_id))->chunks) {
      if (l.tier != cluster::ChunkTier::kEc || l.speculating()) {
        return false;
      }
    }
    return true;
  };
  // Converged: foreground finished, no chunk on the crashed server, and
  // every cold chunk back in EC form. Then every cold byte is read back.
  Poller converge(
      &sim, kPollEvery,
      [&]() {
        bool rescan = sim.Now() - last_scan >= msec(100);
        if (rescan) {
          last_scan = sim.Now();
        }
        bool healed = repair->Scan(rescan);
        return measured_over && healed && cold_writes_acked == kColdWrites && cold_wave_done();
      },
      [&]() {
        out.converge_s = ursa::ToSec(sim.Now() - crash_time);
        cold.Run(&cold_readback, 0, cold_readback.size(), false, [&]() { done = true; });
      });

  size_t next_cold_write = 0;
  std::function<void()> cold_write = [&]() {
    cold.Issue(cold_writes[next_cold_write++], false, [&]() { ++cold_writes_acked; });
    if (next_cold_write < cold_writes.size()) {
      sim.After(kColdWriteEvery, cold_write);
    }
  };
  Poller wave_done(&sim, kPollEvery, cold_wave_done, cold_write);

  std::function<void()> start_measured = [&]() {
    bench.StartMeasured();
    hot.Run(&hot_ops, warm, hot_ops.size(), true, [&]() {
      measured_over = true;
      bench.EndMeasured();
    });
    wave_done.Start();
    sim.After(kCrashDelay, [&]() {
      cluster::ServerId failed = PickCrashVictim(master, hot_id, cold_id);
      bed.cluster().CrashServer(failed);
      crash_time = sim.Now();
      repair = std::make_unique<CrashRepair>(
          &master, std::vector<cluster::DiskId>{hot_id, cold_id}, failed);
      last_scan = sim.Now();
      repair->Scan(true);
      converge.Start();
    });
  };
  sim.After(0, [&]() {
    cold.Run(&cold_fill, 0, cold_fill.size(), false, [&]() {
      sim.After(kColdIdle, [&]() { hot.Run(&hot_ops, 0, warm, false, start_measured); });
    });
  });
  bench.Drive(&done, sec(600));
  out.stored_per_user_byte = StoredPerUserByte(bed);
  return out;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "vm_fleet" || name == "scale_out" || name == "bg_storm";
}

Outcome RunWorkload(Bench& bench, const RunConfig& config) {
  if (config.workload == "vm_fleet") {
    return RunVmFleet(bench, config);
  }
  if (config.workload == "scale_out") {
    return RunScaleOut(bench, config);
  }
  return RunBgStorm(bench, config);
}

}  // namespace ursabench
