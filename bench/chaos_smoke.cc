// Chaos smoke driver: runs the seeded chaos harness over a seed list and
// exits nonzero if any seed fails its safety checks (linearizability,
// replica convergence, corruption repair). CI runs this on fixed seeds under
// sanitizers; locally it is the reproduction tool for a failing seed:
//
//   chaos_smoke --seeds=42          # replay one seed, print its fault trace
//   chaos_smoke --seeds=1,2,3 -v    # sweep, verbose per-seed summaries
//   chaos_smoke --seeds=7 --qos     # same faults with the QoS scheduler on
//   chaos_smoke --health            # sweep with health scoring on (verdicts
//                                   # may only land on injected devices),
//                                   # then the gray-disk detection drill
//   chaos_smoke --scrub             # sweep with background scrubbing on,
//                                   # then the latent-corruption drill (cold
//                                   # at-rest flips must be found and healed
//                                   # by the scrubber, never by a client)
//   chaos_smoke --tier              # sweep with tiered placement on (EC
//                                   # migrations race the fault soup), then
//                                   # the tiering drill (demote wave,
//                                   # degraded reads, rebuild, write-promote)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/chaos/chaos_runner.h"

namespace {

// Peak resident set of this process (VmHWM) in KiB; 0 where /proc is absent.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::vector<uint64_t> ParseSeeds(const std::string& list) {
  std::vector<uint64_t> seeds;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) {
      comma = list.size();
    }
    seeds.push_back(std::strtoull(list.substr(pos, comma - pos).c_str(), nullptr, 10));
    pos = comma + 1;
  }
  return seeds;
}

// Health scoring tuned to chaos scale: the default production windows (2 s
// horizon) outlast the whole fault window, so drills use a 600 ms horizon
// and a 75 ms cadence instead.
ursa::obs::HealthConfig ChaosHealthConfig() {
  ursa::obs::HealthConfig h;
  h.enabled = true;
  h.window_length = ursa::msec(150);
  h.num_windows = 4;
  h.check_interval = ursa::msec(75);
  h.min_samples = 12;
  h.outlier_ratio = 3.0;
  h.outlier_floor = ursa::usec(500);
  h.suspect_after = 2;
  h.degrade_after = 4;
  h.clear_after = 4;
  return h;
}

// The detection drill: one long gray-slow disk episode under steady traffic,
// no other fault types. The episode outlives the workload, so the run must
// END with the device flagged and its server demoted — a detector that
// flickers or never fires fails the leg.
int RunHealthDrill(uint64_t seed, bool verbose, const std::string& json_path) {
  ursa::chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.ops = 4000;
  plan.fault_window = ursa::msec(300);   // the fault starts early...
  plan.workload_tail = ursa::msec(1700);  // ...and traffic keeps feeding digests
  plan.min_fault_len = ursa::sec(2);
  plan.max_fault_len = ursa::sec(2);
  plan.net_faults = 0;
  plan.partitions = 0;
  plan.disk_faults = 1;
  plan.stuck_faults = 0;
  plan.crashes = 0;
  plan.bit_flips = 0;
  plan.cluster.health = ChaosHealthConfig();

  ursa::chaos::ChaosReport report = ursa::chaos::RunChaos(plan);
  if (!json_path.empty() && !report.health_json.empty()) {
    std::ofstream out(json_path);
    out << report.health_json << "\n";
  }

  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::printf("  drill: %-58s %s\n", what, cond ? "OK" : "FAIL");
    failures += cond ? 0 : 1;
  };
  expect(report.ok, "safety checks hold during detection and demotion");
  expect(report.health_demotions >= 1, "gray disk was demoted");
  expect(report.degraded_devices.size() == 1, "exactly the injected device degraded");
  expect(!report.demoted_at_end.empty(), "run ends with the slow device still demoted");
  if (!report.ok || verbose || failures > 0) {
    std::printf("%s\n", report.Summary().c_str());
  }
  return failures;
}

// Scrub tuned to chaos scale: production sweeps take minutes; the drill needs
// a few sweeps inside a couple of simulated seconds.
ursa::scrub::ScrubConfig ChaosScrubConfig() {
  ursa::scrub::ScrubConfig s;
  s.enabled = true;
  s.sweep_interval = ursa::msec(250);
  s.tick_interval = ursa::msec(5);
  s.read_bytes = 256 * ursa::kKiB;
  s.per_server_concurrent = 1;
  s.max_concurrent = 4;
  return s;
}

// The latent-corruption drill: flip bytes in at-rest cold blocks no client
// will ever read, then require the background scrubber to detect every flip
// within one sweep period, repair it end to end, and keep the damage
// invisible to the (read-only) foreground workload.
int RunScrubDrill(uint64_t seed, bool verbose, const std::string& json_path) {
  ursa::chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.cluster.scrub = ChaosScrubConfig();
  ursa::chaos::ChaosReport report = ursa::chaos::RunLatentScrub(plan);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"seed\": " << report.seed << ", \"ok\": " << (report.ok ? "true" : "false")
        << ", \"latent_flips\": " << report.latent_flips
        << ", \"scrub_detected\": " << report.scrub_detected
        << ", \"scrub_repaired\": " << report.scrub_repaired
        << ", \"client_integrity_errors\": " << report.client_integrity_errors
        << ", \"mttd_us\": " << report.scrub_mttd_us
        << ", \"sweep_period_us\": " << report.sweep_period_us << "}\n";
  }

  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::printf("  scrub drill: %-52s %s\n", what, cond ? "OK" : "FAIL");
    failures += cond ? 0 : 1;
  };
  expect(report.latent_flips >= 3, "latent flips landed in cold at-rest data");
  expect(report.scrub_detected >= report.latent_flips, "scrubber detected every flip");
  expect(report.scrub_repaired >= report.scrub_detected, "every detection was repaired");
  expect(report.client_integrity_errors == 0, "zero client-visible corruption errors");
  expect(report.ok, "detection within one sweep period; bytes verified");
  if (!report.ok || verbose || failures > 0) {
    std::printf("%s\n", report.Summary().c_str());
  }
  return failures;
}

// Tiering tuned to chaos scale: production cold-ages are minutes; the drill
// needs demotions within a couple of simulated seconds of idleness, and the
// sweep needs migrations racing the fault soup inside the fault window.
ursa::tier::TierConfig ChaosTierConfig() {
  ursa::tier::TierConfig t;
  t.enabled = true;
  t.ec_k = 4;
  t.ec_m = 2;
  t.heat_half_life = ursa::msec(100);
  t.scan_interval = ursa::msec(100);
  t.demote_max_heat = 2.0;
  t.cold_age = ursa::msec(250);
  t.promote_heat = 16.0;
  t.max_concurrent = 2;
  return t;
}

// The tiering drill: demote wave on an idle disk (capacity factor must fall
// to (k+m)/k), byte-correct degraded reads with a shard server down, a
// report-driven stripe rebuild, a write into a cold chunk acked on
// speculative replica-quorum durability and converging to replication, and
// crashes injected mid-speculation (a replica target, then the master —
// whose restore must resume the back-fill from checkpointed metadata).
int RunTierDrill(uint64_t seed, bool verbose, const std::string& json_path) {
  ursa::chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.cluster.tier = ChaosTierConfig();
  ursa::chaos::ChaosReport report = ursa::chaos::RunTierDrill(plan);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"seed\": " << report.seed << ", \"ok\": " << (report.ok ? "true" : "false")
        << ", \"demotions\": " << report.tier_demotions
        << ", \"write_promotions\": " << report.tier_write_promotions
        << ", \"spec_promotions\": " << report.tier_spec_promotions
        << ", \"spec_resumes\": " << report.tier_spec_resumes
        << ", \"spec_retries\": " << report.tier_spec_retries
        << ", \"shard_repairs\": " << report.tier_shard_repairs
        << ", \"degraded_reads\": " << report.tier_degraded_reads
        << ", \"capacity_factor_before\": " << report.capacity_factor_before
        << ", \"capacity_factor_after\": " << report.capacity_factor_after << "}\n";
  }

  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::printf("  tier drill: %-53s %s\n", what, cond ? "OK" : "FAIL");
    failures += cond ? 0 : 1;
  };
  expect(report.tier_demotions >= 4, "idle chunks demoted to EC stripes");
  expect(report.capacity_factor_after < report.capacity_factor_before,
         "capacity factor dropped toward (k+m)/k");
  expect(report.tier_degraded_reads >= 1, "degraded read reconstructed the lost shard");
  expect(report.tier_shard_repairs >= 1, "failure report drove a stripe rebuild");
  expect(report.tier_write_promotions >= 1, "cold writes promoted their chunks");
  expect(report.tier_spec_promotions >= 1, "speculative promotion served a cold write");
  expect(report.tier_spec_resumes >= 1, "restored master resumed the back-fill");
  expect(report.ok, "all bytes correct; no safety violations");
  if (!report.ok || verbose || failures > 0) {
    std::printf("%s\n", report.Summary().c_str());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<uint64_t> seeds = {1, 2, 3};
  bool verbose = false;
  bool qos = false;
  bool health = false;
  bool scrub = false;
  bool tier = false;
  std::string health_json;
  std::string scrub_json;
  std::string tier_json;
  // Default drill seed picked so the episode lands on an SSD: backup HDDs
  // journal to SSD regions, so HDDs see almost no foreground traffic in the
  // hybrid cluster and are (correctly) invisible to the scorer.
  uint64_t drill_seed = 1;
  int ops = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seeds=", 8) == 0) {
      seeds = ParseSeeds(arg + 8);
    } else if (std::strncmp(arg, "--ops=", 6) == 0) {
      ops = std::atoi(arg + 6);
    } else if (std::strcmp(arg, "--qos") == 0) {
      qos = true;
    } else if (std::strcmp(arg, "--health") == 0) {
      health = true;
    } else if (std::strcmp(arg, "--scrub") == 0) {
      scrub = true;
    } else if (std::strcmp(arg, "--tier") == 0) {
      tier = true;
    } else if (std::strncmp(arg, "--health-json=", 14) == 0) {
      health_json = arg + 14;
    } else if (std::strncmp(arg, "--scrub-json=", 13) == 0) {
      scrub_json = arg + 13;
    } else if (std::strncmp(arg, "--tier-json=", 12) == 0) {
      tier_json = arg + 12;
    } else if (std::strncmp(arg, "--drill-seed=", 13) == 0) {
      drill_seed = std::strtoull(arg + 13, nullptr, 10);
    } else if (std::strcmp(arg, "-v") == 0 || std::strcmp(arg, "--verbose") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds=a,b,c] [--ops=N] [--qos] [--health] [--scrub] [--tier] "
                   "[--health-json=path] [--scrub-json=path] [--tier-json=path] [-v]\n",
                   argv[0]);
      return 2;
    }
  }

  int failures = 0;
  for (uint64_t seed : seeds) {
    ursa::chaos::ChaosPlan plan;
    plan.seed = seed;
    plan.cluster.qos.enabled = qos;
    if (health) {
      // Health on: the runner additionally fails any seed whose scorer
      // degrades a device the engine never gray-faulted.
      plan.cluster.health = ChaosHealthConfig();
    }
    if (scrub) {
      // Scrub on: the full fault soup (crashes, partitions, gray disks, bit
      // flips) runs with background sweeps and checksum ledgers active — the
      // safety checks must hold with the scrubber competing for the devices.
      plan.cluster.scrub = ChaosScrubConfig();
    }
    if (tier) {
      // Tier on: migrations race the fault soup. Chunks idle long enough
      // demote mid-run; workload writes into them must promote-before-ack
      // while crashes and partitions land — linearizability still checked.
      plan.cluster.tier = ChaosTierConfig();
    }
    if (ops > 0) {
      plan.ops = ops;
    }
    ursa::chaos::ChaosReport report = ursa::chaos::RunChaos(plan);
    if (!report.ok || verbose) {
      std::printf("%s\n", report.Summary().c_str());
    }
    failures += report.ok ? 0 : 1;
  }
  std::printf("chaos smoke: %zu seeds, %d failed, peak RSS %.1f MiB\n", seeds.size(), failures,
              static_cast<double>(PeakRssKb()) / 1024.0);

  if (health) {
    failures += RunHealthDrill(drill_seed, verbose, health_json);
  }
  if (scrub) {
    failures += RunScrubDrill(drill_seed, verbose, scrub_json);
  }
  if (tier) {
    failures += RunTierDrill(drill_seed, verbose, tier_json);
  }
  return failures == 0 ? 0 : 1;
}
