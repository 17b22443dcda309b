// Benchmark program: runs one workload once and prints one JSON line.
//
//   ursabench --workload vm_fleet|scale_out|bg_storm --seed N
//             [--trace 0|1] [--scale X] [--spans-out FILE]
//
// The JSON holds the wall-clock figures of this process ("wall"), the
// simulated end-to-end figures ("sim"), every registry count over the
// measured phase and convergence ("counts"), and with --trace 1 the
// per-layer metrics ("layers"). "sim" and "counts" depend only on the
// workload, seed and scale. Exit code 1 means a failed op or a read-back
// mismatch; 2 a usage error; 3 a run that stalled.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "layers.h"
#include "workloads.h"

namespace ursabench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: ursabench --workload vm_fleet|scale_out|bg_storm --seed N "
               "[--trace 0|1] [--scale X] [--spans-out FILE]\n",
               msg);
  return 2;
}

class JsonLine {
 public:
  void Key(const std::string& key) {
    Sep();
    out_ += "\"" + key + "\":";
  }
  void Num(const std::string& key, double v) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Str(const std::string& key, const std::string& v) {
    Key(key);
    out_ += "\"" + v + "\"";
  }
  void Bool(const std::string& key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Open(const std::string& key) {
    Key(key);
    out_ += "{";
    first_ = true;
  }
  void Close() {
    out_ += "}";
    first_ = false;
  }
  std::string Done() { return "{" + out_ + "}"; }

 private:
  void Sep() {
    if (!first_) {
      out_ += ",";
    }
    first_ = false;
  }
  std::string out_;
  bool first_ = true;
};

int Main(int argc, char** argv) {
  const int64_t process_start = WallNs();
  RunConfig config;
  bool traced = false;
  bool have_workload = false;
  bool have_seed = false;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace") {
      traced = value == "1";
    } else if (arg == "--scale") {
      config.scale = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !IsWorkload(config.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !(config.scale > 0)) {
    return Usage("missing --seed or bad --scale");
  }

  Bench bench(traced);
  LayerProbe probe(&bench);
  bench.on_measure_start = [&probe]() { probe.OnMeasureStart(); };
  bench.on_measure_end = [&probe]() { probe.OnMeasureEnd(); };
  Outcome outcome = RunWorkload(bench, config);
  probe.Finish();
  const int64_t end_wall = WallNs();

  OpStats& ops = bench.ops();
  const double measured_s =
      static_cast<double>(bench.measure_end_wall() - bench.measure_start_wall()) / 1e9;
  const double sim_s = ursa::ToSec(bench.measure_end_sim() - bench.measure_start_sim());
  const double n_ops = static_cast<double>(ops.measured_ops);
  const bool correct = ops.failed == 0 && ops.mismatched_sectors == 0 && ops.measured_ops > 0;

  JsonLine j;
  j.Str("workload", config.workload);
  j.Num("seed", static_cast<double>(config.seed));
  j.Num("scale", config.scale);
  j.Bool("traced", traced);
  j.Bool("correct", correct);
  j.Num("attempted", static_cast<double>(ops.attempted));
  j.Num("failed", static_cast<double>(ops.failed));
  j.Num("checked_sectors", static_cast<double>(ops.checked_sectors));
  j.Num("mismatched_sectors", static_cast<double>(ops.mismatched_sectors));

  j.Open("wall");
  j.Num("setup_s", static_cast<double>(bench.measure_start_wall() - process_start) / 1e9);
  j.Num("measured_s", measured_s);
  j.Num("io_per_wall_s", measured_s > 0 ? n_ops / measured_s : 0);
  j.Num("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0);
  j.Num("rss_kb_per_io",
        n_ops > 0 ? (static_cast<double>(bench.rss_end_kb()) -
                     static_cast<double>(bench.rss_start_kb())) / n_ops
                  : 0);
  j.Num("total_s", static_cast<double>(end_wall - process_start) / 1e9);
  j.Close();

  j.Open("sim");
  j.Num("read_p50_us", Quantile(ops.read_ns, 0.5) / 1e3);
  j.Num("read_p999_us", Quantile(ops.read_ns, 0.999) / 1e3);
  j.Num("read_samples", static_cast<double>(ops.read_ns.size()));
  j.Num("write_p50_us", Quantile(ops.write_ns, 0.5) / 1e3);
  j.Num("write_p999_us", Quantile(ops.write_ns, 0.999) / 1e3);
  j.Num("write_samples", static_cast<double>(ops.write_ns.size()));
  j.Num("sim_kiops", bench.SimIops() / 1e3);
  j.Num("bytes_stored_per_user_byte", outcome.stored_per_user_byte);
  j.Num("bg_converge_s", outcome.converge_s);
  j.Num("measured_ops", n_ops);
  j.Num("measured_sim_s", sim_s);
  j.Close();

  j.Open("counts");
  for (const auto& [name, value] : probe.counts()) {
    j.Num(name, value);
  }
  j.Close();

  if (traced) {
    const MetricList layers = probe.LayerMetrics();
    j.Open("layers");
    for (const auto& [name, value, unit] : layers.items) {
      j.Num(name, value);
    }
    j.Close();
    j.Open("units");
    for (const auto& [name, value, unit] : layers.items) {
      j.Str(name, unit);
    }
    j.Close();
    if (!spans_out.empty()) {
      bench.spans().WriteJsonl(spans_out);
    }
  }

  std::printf("%s\n", j.Done().c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "%s seed %" PRIu64 ": %" PRIu64 " failed ops, %" PRIu64
                 " mismatched sectors\n",
                 config.workload.c_str(), config.seed, ops.failed, ops.mismatched_sectors);
  }
  // Skip teardown: the simulated cluster is large and its destruction is no
  // part of what is measured.
  std::_Exit(correct ? 0 : 1);
}

}  // namespace
}  // namespace ursabench

int main(int argc, char** argv) { return ursabench::Main(argc, argv); }
