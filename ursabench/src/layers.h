// Per-layer observation from outside the program: registry snapshot diffs,
// device and CPU counters, periodic journal gauges, and the obs::Tracer
// stage histograms, all read through public accessors.
#ifndef URSABENCH_LAYERS_H_
#define URSABENCH_LAYERS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace ursabench {

// Ordered (name, value, unit) list.
struct MetricList {
  std::vector<std::tuple<std::string, double, std::string>> items;
  void Add(std::string name, double value, std::string unit) {
    items.emplace_back(std::move(name), value, std::move(unit));
  }
};

class LayerProbe {
 public:
  explicit LayerProbe(Bench* bench) : bench_(bench) {}

  // Called from the simulator event that opens / closes the measured window.
  void OnMeasureStart();
  void OnMeasureEnd();
  // Called once the run (measured phase and convergence) is over.
  void Finish();

  // Registry counters summed over labels, end of run minus measured start:
  // every count the program exposes, for the determinism check.
  const std::map<std::string, double>& counts() const { return counts_; }

  // The per-layer metrics of a traced run.
  MetricList LayerMetrics() const;

 private:
  struct Snapshot {
    std::map<std::string, double> registry;  // summed over labels
    uint64_t ssd_ops = 0;
    uint64_t hdd_ops = 0;
    uint64_t device_bytes_written = 0;
    ursa::Nanos cpu_busy = 0;
  };
  Snapshot Take() const;
  void SampleGauges();

  Bench* bench_;
  Snapshot start_;
  Snapshot end_;
  std::map<std::string, double> counts_;
  bool sampling_ = false;
  double backlog_bytes_max_ = 0;
  double index_segments_max_ = 0;
  MetricList stages_;  // captured at the end of the measured window
};

}  // namespace ursabench

#endif  // URSABENCH_LAYERS_H_
